package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/store"
	"repro/race"
)

// workItem is one unit on a session's ingest queue: an event batch, or a
// flush barrier whose ack is sent once everything before it has been
// applied.
type workItem struct {
	events []race.Event
	// recycle marks events as one of the session's slabs: the feeder hands
	// it back (putSlab) once journal and engine are done with the batch.
	recycle bool
	ack     chan error
	// trace is the span context the feeder parents its journal/engine
	// spans under: the enqueue span for a batch, the flush span for a
	// barrier. Zero when tracing is off or no context reached the session.
	trace tracing.SpanContext
}

// Session is one tenant: an engine plus the feeder goroutine and queue
// that isolate it from every other tenant. With a durable server
// (Config.DataDir) the session also owns an on-disk directory and journal
// racelog (see journal.go).
type Session struct {
	ID  string
	cfg SessionConfig
	srv *Server

	// dir and jlog are the session's persistence arm (nil/"" without a
	// DataDir). The journal is written only by the feeder goroutine.
	dir  string
	jlog *store.Log

	// ingestMu serializes producers (Feed/Flush/Close/abort) so nothing
	// sends on a closed work channel.
	ingestMu sync.Mutex
	closing  bool
	work     chan workItem
	done     chan struct{} // feeder exited; report/err final

	// slabs is the free list of event slabs that front ends decode into
	// (takeSlab/putSlab): exactly two tokens circulate, so one batch is
	// decoded while the feeder works on the previous one and steady-state
	// ingest allocates nothing. A token starts empty and grows to the
	// largest batch seen.
	slabs chan []race.Event

	mu         sync.Mutex
	lastActive time.Time
	fed        uint64
	enqueued   uint64 // events accepted into the queue (≥ fed)
	online     []race.RaceInfo
	report     *race.Report
	err        error
	suspended  bool                // graceful shutdown: feeder preserves the journal
	attached   bool                // a driver has claimed this session (Session.claim)
	traceCtx   tracing.SpanContext // default parent for ingest spans (the driving connection's span)
}

// startSpan opens a child span named name under parent, falling back to
// the session's connection-level context. Nil (free) when tracing is off.
func (sess *Session) startSpan(name string, parent tracing.SpanContext) *tracing.Span {
	tr := sess.srv.cfg.Tracer
	if tr == nil {
		return nil
	}
	if !parent.Valid() {
		sess.mu.Lock()
		parent = sess.traceCtx
		sess.mu.Unlock()
	}
	sp := tr.Child(name, parent)
	sp.SetAttr("session", sess.ID)
	return sp
}

// onRace collects online detections; it runs on the feeder goroutine (or
// the engine pipeline's drainer), never concurrently with itself.
func (sess *Session) onRace(ri race.RaceInfo) {
	sess.mu.Lock()
	sess.online = append(sess.online, ri)
	sess.mu.Unlock()
	sess.srv.metrics.races.Add(1)
}

// run is the feeder: it drains the work queue — journaling each batch
// before the engine sees it on a durable server — recovering panics into
// the session's sticky error, and closes the engine when the queue
// closes. It is the only goroutine that touches the engine (and the
// journal), which is what makes one poisoned engine unable to take down
// the server.
func (sess *Session) run(sink engineSink) {
	defer close(sess.done)
	for item := range sess.work {
		if item.ack != nil {
			// Flush barrier: first make everything journaled so far
			// durable, then wait for the engine to apply it (on a parallel
			// engine batches are still in flight on worker rings). The ack
			// then really means "everything before this point is analyzed
			// and survives a crash".
			if sess.Err() == nil && sess.jlog != nil {
				jsp := sess.startSpan("raced.journal.fsync", item.trace)
				err := sess.jlog.Sync()
				jsp.SetError(err)
				jsp.End()
				if err != nil {
					sess.poison(fmt.Errorf("%w: syncing journal: %w", ErrDiskFault, err), err)
				}
			}
			if sess.Err() == nil {
				esp := sess.startSpan("raced.engine.sync", item.trace)
				err := guard(" at sync", sink.Sync)
				esp.SetError(err)
				esp.End()
				if err != nil {
					sess.poison(err, nil)
				}
			}
			item.ack <- sess.Err()
			continue
		}
		// A poisoned session drains and discards, so producers never block.
		if sess.Err() == nil {
			sess.ingest(sink, item)
		}
		if item.recycle {
			sess.putSlab(item.events)
		}
	}
	if sess.isSuspended() {
		// Graceful shutdown: seal the journal (Close syncs it) and discard
		// only the engine — on disk the session stays "open" so the next
		// process resumes it from the journal.
		if sess.jlog != nil {
			sess.jlog.Close()
		}
		abortSink(sink)
		return
	}
	var rep *race.Report
	if sess.Err() == nil {
		rep = sess.finish(sink)
	} else {
		// Aborted, evicted, or already poisoned: nobody will read a report,
		// so discard the engine instead of paying Close (which, for a
		// vindicating engine, replays the whole retained stream).
		abortSink(sink)
	}
	if sess.jlog == nil {
		return
	}
	sess.jlog.Close()
	switch err := sess.Err(); {
	case err == nil:
		if err := sess.persistReport(rep); err == nil {
			sess.persistState(stateClosed, sess.Fed())
		}
		// On a failed report write the state stays "open": the sealed
		// journal regenerates the identical report after a restart, which
		// beats discarding a recoverable result.
	case Classify(err).Fate == Quarantine:
		sess.quarantine()
	case Classify(err).Fate == MarkAborted:
		sess.persistState(stateAborted, sess.Fed())
	}
}

// finish closes the engine into the session's report, or poisons the
// session. A journaled session's engine retains no stream (newEngineSink):
// its vindication verdicts come from the journal, the one on-disk copy of
// the stream, so a journal that cannot be read back is a disk fault.
func (sess *Session) finish(sink engineSink) *race.Report {
	var rep *race.Report
	err := guard(" at close", func() (err error) { rep, err = sink.Close(); return })
	if err == nil && sess.cfg.Vindicate && sess.jlog != nil {
		tr, rerr := sess.journalTrace()
		if rerr != nil {
			sess.poison(fmt.Errorf("%w: reading journal to vindicate: %w", ErrDiskFault, rerr), rerr)
			return nil
		}
		err = guard(" at close", func() error { return rep.Vindicate(tr) })
	}
	if err != nil {
		sess.poison(err, nil)
		return nil
	}
	sess.mu.Lock()
	sess.report = rep
	sess.mu.Unlock()
	return rep
}

// ingest applies one batch on the feeder goroutine: journal, then engine.
func (sess *Session) ingest(sink engineSink, item workItem) {
	// Write-ahead: the journal sees the batch before the engine, so a
	// crash can lose unjournaled analysis work but never journal an
	// event the engine might not have seen on replay.
	if sess.jlog != nil {
		jsp := sess.startSpan("raced.journal.append", item.trace)
		jsp.SetInt("events", int64(len(item.events)))
		t0 := time.Now()
		err := sess.jlog.AppendBatch(item.events)
		sess.srv.metrics.journalAppend.ObserveDuration(time.Since(t0))
		jsp.SetError(err)
		jsp.End()
		if err != nil {
			sess.poison(fmt.Errorf("%w: journaling batch: %w", ErrDiskFault, err), err)
			return
		}
	}
	sess.srv.metrics.journaled.Add(uint64(len(item.events)))
	asp := sess.startSpan("raced.engine.analyze", item.trace)
	asp.SetInt("events", int64(len(item.events)))
	if err := guard("", func() error { return sink.FeedBatch(item.events) }); err != nil {
		asp.SetError(err)
		asp.End()
		sess.poison(err, nil)
		return
	}
	asp.End()
	sess.srv.metrics.analyzed.Add(uint64(len(item.events)))
	sess.srv.metrics.batches.Add(1)
	sess.mu.Lock()
	sess.fed += uint64(len(item.events))
	sess.mu.Unlock()
}

// isSuspended reports whether graceful shutdown quiesced this session.
func (sess *Session) isSuspended() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.suspended
}

// poison fails the session on an ingestion or analysis error, counting the
// failure once; ioErr, when set, is the disk failure behind it.
func (sess *Session) poison(err, ioErr error) {
	if !sess.fail(err) {
		return
	}
	sess.srv.metrics.failed.Add(1)
	if ioErr != nil {
		sess.srv.noteIOFault(ioErr)
	}
}

// fail records the session's first error, reporting whether this call set
// it (so callers count each failure exactly once).
func (sess *Session) fail(err error) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.err != nil {
		return false
	}
	sess.err = err
	return true
}

// Err returns the session's sticky error, if any.
func (sess *Session) Err() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.err
}

// closedErr names why a closing session rejects new work. A suspended
// session answers ErrSuspended — the caller is holding a stale handle to a
// session that was handed off (migration, graceful shutdown) and can resume
// it elsewhere; a failed one answers its sticky error; a cleanly closing
// one answers ErrSessionClosed. suspend sets the suspended flag before the
// closing flag, so any observer of closing sees the right classification.
func (sess *Session) closedErr() error {
	if sess.isSuspended() {
		return ErrSuspended
	}
	if err := sess.Err(); err != nil {
		return err
	}
	return ErrSessionClosed
}

// Fed returns the number of events the session's engine has consumed.
func (sess *Session) Fed() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.fed
}

// SessionStatus is one row of the GET /sessions listing.
type SessionStatus struct {
	ID string `json:"id"`
	// State is "streaming" (live), "finished" (closed with a report), or
	// "failed" (terminal error: aborted, evicted, poisoned).
	State string `json:"state"`
	// Events is the number of events the session's engine has consumed.
	Events uint64 `json:"events"`
	// Races counts the races reported so far (live: online detections;
	// finished: the report's dynamic count).
	Races    int      `json:"races"`
	Analyses []string `json:"analyses,omitempty"`
}

// status is the session's listing row; live says whether it still holds a
// slot in the server's table (else it is in the finished archive).
func (sess *Session) status(live bool) SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := SessionStatus{
		ID:       sess.ID,
		State:    "streaming",
		Events:   sess.fed,
		Races:    len(sess.online),
		Analyses: sess.cfg.Analyses,
	}
	switch {
	case sess.err != nil:
		st.State = "failed"
	case !live:
		st.State = "finished"
		if sess.report != nil {
			st.Races = sess.report.Dynamic()
		}
	}
	return st
}

// Races returns a snapshot of the races detected so far, in delivery
// order — the live view GET /sessions/{id}/races serves while the session
// is still streaming.
func (sess *Session) Races() []race.RaceInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return append([]race.RaceInfo(nil), sess.online...)
}

// touch refreshes the idle-eviction clock.
func (sess *Session) touch() {
	now := sess.srv.cfg.now()
	sess.mu.Lock()
	sess.lastActive = now
	sess.mu.Unlock()
}

// Feed enqueues one event batch. It blocks while the session's queue is
// full — per-session backpressure that propagates to the producing
// connection and no further. The batch is owned by the session afterwards.
// A sticky ingestion error is returned immediately (the batch is dropped),
// but full error reporting is Flush's and Close's job.
func (sess *Session) Feed(events []race.Event) error {
	return sess.feed(tracing.SpanContext{}, events, false)
}

// maxSlabEvents bounds the slabs a session keeps: a frame past it (1.5 MiB
// of records; clients ship 2048-event frames by default) is decoded into a
// one-off buffer instead of pinning that much per session.
const maxSlabEvents = 1 << 17

func newSlabs() chan []race.Event {
	slabs := make(chan []race.Event, 2)
	slabs <- nil
	slabs <- nil
	return slabs
}

// takeSlab takes one of the session's two event slabs, waiting for the
// feeder to finish with one when both are in flight. Whoever takes a slab
// hands it (or the grown slab that replaced it) back exactly once: feed
// with recycle set does so on every path, putSlab otherwise.
func (sess *Session) takeSlab() []race.Event {
	slab := <-sess.slabs
	select {
	case other := <-sess.slabs:
		// Both are free: work in the one already grown (and cache-warm). The
		// second grows only once batches overlap — a client that waits for
		// every flush ack never makes it.
		if cap(other) > cap(slab) {
			slab, other = other, slab
		}
		sess.slabs <- other
	default:
	}
	return slab
}

// putSlab returns a slab to the free list.
func (sess *Session) putSlab(slab []race.Event) {
	if cap(slab) > maxSlabEvents {
		slab = nil
	}
	sess.slabs <- slab[:0]
}

// feed enqueues one batch. With recycle set, events is a slab from takeSlab
// and goes back to the free list when the feeder is done with it — or here,
// when the batch is refused.
func (sess *Session) feed(parent tracing.SpanContext, events []race.Event, recycle bool) error {
	refuse := func(err error) error {
		if recycle {
			sess.putSlab(events)
		}
		return err
	}
	if len(events) == 0 {
		return refuse(sess.Err())
	}
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	if sess.closing {
		return refuse(sess.closedErr())
	}
	if err := sess.Err(); err != nil {
		return refuse(err)
	}
	sess.touch()
	sp := sess.startSpan("raced.enqueue", parent)
	sp.SetInt("events", int64(len(events)))
	sp.SetInt("queue_depth", int64(len(sess.work)))
	// Counter before send: once the batch is in the channel the feeder
	// may journal and analyze it at any moment, and the pipeline
	// invariant (enqueued ≥ journaled ≥ analyzed) must hold under any
	// interleaving with a scrape.
	sess.srv.metrics.enqueued.Add(uint64(len(events)))
	sess.srv.metrics.queueDepth.Observe(float64(len(sess.work)))
	item := workItem{events: events, recycle: recycle, trace: sp.Context()}
	select {
	case sess.work <- item:
		// Free slot: record a zero wait so the histogram's count matches
		// accepted batches and the blocked fraction is count-above-zero.
		sess.srv.metrics.queueWait.Observe(0)
	default:
		// Queue full: this send is the per-session backpressure stall,
		// the wait a client sees in its flush-ack latency.
		start := sess.srv.cfg.now()
		sess.work <- item
		sess.srv.metrics.queueWait.ObserveDuration(sess.srv.cfg.now().Sub(start))
	}
	sess.mu.Lock()
	sess.enqueued += uint64(len(events))
	sess.mu.Unlock()
	sp.End()
	return nil
}

// Enqueued returns the number of events the session has accepted into its
// queue — the offset a resuming client must continue from (everything
// before it will reach the engine; Fed trails it only by queued work).
func (sess *Session) Enqueued() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.enqueued
}

// detach releases the claim (Session.claim).
func (sess *Session) detach() {
	sess.mu.Lock()
	sess.attached = false
	sess.mu.Unlock()
}

// Flush is the sync barrier: it returns once every previously fed batch has
// been applied to the session's analyses, reporting any ingestion error.
func (sess *Session) Flush() error {
	return sess.FlushCtx(tracing.SpanContext{})
}

// FlushCtx is Flush with an explicit trace parent — the client's flush
// span carried in the wire Flush frame — so the barrier's journal-fsync and
// engine-sync spans join the caller's trace.
func (sess *Session) FlushCtx(parent tracing.SpanContext) error {
	sess.ingestMu.Lock()
	if sess.closing {
		sess.ingestMu.Unlock()
		return sess.closedErr()
	}
	sess.touch()
	sp := sess.startSpan("raced.flush", parent)
	t0 := time.Now()
	ack := make(chan error, 1)
	sess.work <- workItem{ack: ack, trace: sp.Context()}
	sess.ingestMu.Unlock()
	err := <-ack
	sess.srv.metrics.flushAck.ObserveDuration(time.Since(t0))
	sp.SetError(err)
	sp.End()
	return err
}

// Close ends the stream: pending batches drain, the engine closes, and the
// final report is returned (with vindication verdicts if configured). Close
// is idempotent; after it, the session no longer counts against the
// server's session limit.
func (sess *Session) Close() (*race.Report, error) {
	if sess.end(func() {}) {
		sess.srv.metrics.closed.Add(1)
	}
	<-sess.done
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.report, sess.err
}

// end closes the work queue, waits for the feeder to finish and moves the
// session to the finished archive — once: it reports whether this call did,
// and only then runs mark first, under the producers' lock, so that what the
// feeder finds when the queue closes (a preset error, the suspended flag) is
// the ending that won.
func (sess *Session) end(mark func()) bool {
	sess.ingestMu.Lock()
	if sess.closing {
		sess.ingestMu.Unlock()
		return false
	}
	mark()
	sess.closing = true
	close(sess.work)
	sess.ingestMu.Unlock()
	<-sess.done
	sess.srv.remove(sess)
	return true
}

// abort closes the session with a preset error (eviction, shutdown,
// connection loss), discarding the report. It reports whether this call
// performed the abort. Non-eviction aborts count toward the closed
// metric so opened == closed + evicted + active stays an invariant
// (evictions are counted by EvictIdle).
func (sess *Session) abort(cause error) bool {
	if !sess.end(func() { sess.fail(cause) }) {
		return false
	}
	if !errors.Is(cause, ErrEvicted) {
		sess.srv.metrics.closed.Add(1)
	}
	return true
}
