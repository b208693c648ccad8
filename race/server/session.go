package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/report"
	"repro/internal/store"
	"repro/race"
)

// Session is one tenant: an engine that its one driver (Session.claim) — a
// wire connection, an in-process fleet backend, a one-shot POST /ingest —
// or an in-process Feed caller runs on its own goroutine. With a durable
// server (Config.DataDir) the session also owns an on-disk directory and
// journal racelog (see journal.go).
//
// The races delivered while it streams live in chunks that are never
// copied (report.Chunks), as 16-byte liveRace records; Races copies them
// out as race.RaceInfo. A session that closes into its report drops them:
// the report holds its races. The report is encoded once per close: a
// durable session's teardown writes the document to report.json and its
// closing driver sends those same bytes (closeDoc). The bytes are not
// retained; a finished session keeps its *race.Report, and a later reader
// encodes it again.
type Session struct {
	ID  string
	cfg SessionConfig
	srv *Server

	// dir and jlog are the session's persistence arm (nil/"" without a
	// DataDir).
	dir  string
	jlog *store.Log

	// ingestMu serializes everything that touches the engine and the
	// journal — feed, flushCtx and end — so ending waits for at most one
	// batch in flight. sink is the engine, nil once the session has ended.
	ingestMu sync.Mutex
	closing  bool
	sink     engineSink

	// slab is the claim holder's decode buffer (Attachment): every frame is
	// decoded into it and fed from it, so steady-state ingest allocates
	// nothing. It grows to the largest batch seen and goes with the claim.
	slab []race.Event

	mu         sync.Mutex
	lastActive time.Time
	fed        uint64
	online     report.Chunks[liveRace] // online detections, in delivery order
	names      []string                // analysis names, indexed by liveRace.analysis
	report     *race.Report
	err        error
	suspended  bool                // graceful shutdown: end preserves the journal
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

// liveRace is one online detection as a session keeps it: 16 bytes where
// a race.RaceInfo takes 48. The index fits in 32 bits because an engine
// refuses a stream past race.ErrEventLimit. It keeps no seq: an engine
// delivers each analysis's races in detection order from seq 0, so a
// race's seq is the number of earlier records of its analysis.
type liveRace struct {
	v, loc, index uint32
	analysis      uint16 // into Session.names
	write         bool
}

// onRace collects online detections; it runs under ingestMu (or on an
// engine pipeline worker, one call at a time), never concurrently with
// itself.
func (sess *Session) onRace(ri race.RaceInfo) {
	sess.mu.Lock()
	a := slices.Index(sess.names, ri.Analysis)
	if a < 0 {
		a, sess.names = len(sess.names), append(sess.names, ri.Analysis)
	}
	sess.online.Add(liveRace{
		v: ri.Var, loc: ri.Loc, index: uint32(ri.Index), analysis: uint16(a), write: ri.Write,
	})
	sess.mu.Unlock()
}

// teardown ends the engine once ingestion has stopped (end): a suspended
// session seals its journal and discards the engine, a healthy one closes
// into its report, a failed one is discarded — and a durable session's
// state on disk follows its sticky error's fate. It returns the report's
// document when it wrote one to report.json, nil otherwise.
func (sess *Session) teardown() (doc []byte) {
	sink := sess.sink
	sess.sink = nil
	if sess.isSuspended() {
		// Graceful shutdown: seal the journal (Close syncs it) and discard
		// only the engine — on disk the session stays "open" so the next
		// process resumes it from the journal.
		if sess.jlog != nil {
			sess.jlog.Close()
		}
		abortSink(sink)
		return nil
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
		return nil
	}
	sess.jlog.Close()
	switch err := sess.Err(); {
	case err == nil:
		doc, _ = rep.MarshalJSON()
		if err := sess.persistReport(doc); err == nil {
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
	return doc
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
	sess.online, sess.names = report.Chunks[liveRace]{}, nil // rep holds the races
	sess.mu.Unlock()
	return rep
}

// ingest applies one batch under ingestMu: journal, then engine. Its
// spans parent under parent, or the session's connection-level context.
func (sess *Session) ingest(parent tracing.SpanContext, events []race.Event) {
	// Write-ahead: the journal sees the batch before the engine, so a
	// crash can lose unjournaled analysis work but never journal an
	// event the engine might not have seen on replay.
	if sess.jlog != nil {
		jsp := sess.startSpan("raced.journal.append", parent)
		jsp.SetInt("events", int64(len(events)))
		t0 := time.Now()
		err := sess.jlog.AppendBatch(events)
		sess.srv.metrics.journalAppend.ObserveDuration(time.Since(t0))
		jsp.SetError(err)
		jsp.End()
		if err != nil {
			sess.poison(fmt.Errorf("%w: journaling batch: %w", ErrDiskFault, err), err)
			return
		}
	}
	sess.srv.metrics.journaled.Add(uint64(len(events)))
	asp := sess.startSpan("raced.engine.analyze", parent)
	asp.SetInt("events", int64(len(events)))
	if err := guard("", func() error { return sess.sink.FeedBatch(events) }); err != nil {
		asp.SetError(err)
		asp.End()
		sess.poison(err, nil)
		return
	}
	asp.End()
	sess.srv.metrics.analyzed.Add(uint64(len(events)))
	sess.srv.metrics.batches.Add(1)
	sess.mu.Lock()
	sess.fed += uint64(len(events))
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

// Fed returns the number of events the session's engine has consumed — the
// offset a resuming client continues from.
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
	// Races counts the races reported so far, every analysis's (live:
	// online detections; finished: the sum of the report's dynamic counts).
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
		Races:    sess.online.Len(),
		Analyses: sess.cfg.Analyses,
	}
	switch {
	case sess.err != nil:
		st.State = "failed"
	case sess.report != nil: // closed, though perhaps not yet archived
		st.State = "finished"
		st.Races = 0
		for _, name := range sess.report.Analyses() {
			sub, _ := sess.report.ByAnalysis(name)
			st.Races += sub.Dynamic()
		}
	case !live:
		st.State = "finished"
	}
	return st
}

// Races returns a fresh copy of the races detected so far, in delivery
// order, nil when there are none — the live view GET /sessions/{id}/races
// serves while the session is still streaming. live is false once the
// session has closed into its report, which then holds its races.
func (sess *Session) Races() (races []race.RaceInfo, live bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.report != nil {
		return nil, false
	}
	if sess.online.Len() == 0 {
		return nil, true
	}
	races = make([]race.RaceInfo, 0, sess.online.Len())
	seq := make([]int, len(sess.names))
	for _, lr := range sess.online.Each {
		races = append(races, race.RaceInfo{
			Analysis: sess.names[lr.analysis], Seq: seq[lr.analysis], Var: lr.v,
			Loc: lr.loc, Index: int(lr.index), Write: lr.write,
		})
		seq[lr.analysis]++
	}
	return races, true
}

// touch refreshes the idle-eviction clock.
func (sess *Session) touch() {
	now := sess.srv.cfg.now()
	sess.mu.Lock()
	sess.lastActive = now
	sess.mu.Unlock()
}

// Feed applies one event batch — journaled first on a durable server — on
// the caller's goroutine and returns once it is applied, so a slow analysis
// stalls only its own producer. The caller may reuse events afterwards. A
// sticky ingestion error is returned immediately (the batch is dropped),
// but full error reporting is Flush's and Close's job.
func (sess *Session) Feed(events []race.Event) error {
	return sess.feed(tracing.SpanContext{}, events)
}

// feed applies one batch unless the session is closing or failed; the
// batch's spans parent under parent.
func (sess *Session) feed(parent tracing.SpanContext, events []race.Event) error {
	if len(events) == 0 {
		return sess.Err()
	}
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	if sess.closing {
		return sess.closedErr()
	}
	if err := sess.Err(); err != nil {
		return err
	}
	sess.touch()
	sess.ingest(parent, events)
	return nil
}

// detach releases the claim (Session.claim), and the decode buffer with it.
func (sess *Session) detach() {
	sess.mu.Lock()
	sess.attached = false
	sess.slab = nil
	sess.mu.Unlock()
}

// Flush is the sync barrier: it returns once every previously fed batch has
// been applied to the session's analyses, reporting any ingestion error.
func (sess *Session) Flush() error {
	return sess.flushCtx(tracing.SpanContext{})
}

// flushCtx is Flush with an explicit trace parent — the client's flush
// span carried in the wire Flush frame — so the barrier's journal-fsync and
// engine-sync spans join the caller's trace.
func (sess *Session) flushCtx(parent tracing.SpanContext) error {
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	if sess.closing {
		return sess.closedErr()
	}
	sess.touch()
	sp := sess.startSpan("raced.flush", parent)
	t0 := time.Now()
	// First make everything journaled so far durable, then wait for the
	// engine to apply it (on a parallel engine batches are still in flight
	// on worker rings): a nil answer means "everything before this point is
	// analyzed and survives a crash".
	if sess.Err() == nil && sess.jlog != nil {
		jsp := sess.startSpan("raced.journal.fsync", sp.Context())
		err := sess.jlog.Sync()
		jsp.SetError(err)
		jsp.End()
		if err != nil {
			sess.poison(fmt.Errorf("%w: syncing journal: %w", ErrDiskFault, err), err)
		}
	}
	if sess.Err() == nil {
		esp := sess.startSpan("raced.engine.sync", sp.Context())
		err := guard(" at sync", sess.sink.Sync)
		esp.SetError(err)
		esp.End()
		if err != nil {
			sess.poison(err, nil)
		}
	}
	err := sess.Err()
	sess.srv.metrics.flushAck.ObserveDuration(time.Since(t0))
	sp.SetError(err)
	sp.End()
	return err
}

// Close ends the stream: the engine closes after any batch in flight, and
// the final report is returned (with vindication verdicts if configured).
// Close is idempotent; after it, the session no longer counts against the
// server's session limit.
func (sess *Session) Close() (*race.Report, error) {
	sess.closeEnd()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.report, sess.err
}

// closeDoc is Close for a caller that sends the report on: it returns the
// report's document (race.Report.MarshalJSON) — the bytes this close
// journaled as report.json, or else an encoding made here, once.
func (sess *Session) closeDoc() ([]byte, error) {
	doc := sess.closeEnd()
	sess.mu.Lock()
	rep, err := sess.report, sess.err
	sess.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case rep == nil: // a suspend's end won, and its error is not yet set
		return nil, sess.closedErr()
	case doc == nil:
		doc, _ = rep.MarshalJSON()
	}
	return doc, nil
}

// closeEnd ends the session cleanly unless it has ended already, counting
// the close, and returns the document teardown journaled, if any.
func (sess *Session) closeEnd() []byte {
	won, doc := sess.end(func() {})
	if won {
		sess.srv.metrics.closed.Add(1)
	}
	return doc
}

// end stops ingestion, tears the engine down and moves the session to the
// finished archive — once: it reports whether this call did, with the
// document teardown journaled, and only then runs mark first, so that what
// teardown finds (a preset error, the suspended flag) is the ending that
// won. It holds ingestMu throughout, so it waits for a batch in flight, and
// an end that lost returns only once the winner's teardown, report and all,
// is complete.
func (sess *Session) end(mark func()) (won bool, doc []byte) {
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	if sess.closing {
		return false, nil
	}
	mark()
	sess.closing = true
	doc = sess.teardown()
	sess.srv.remove(sess)
	return true, doc
}

// abort closes the session with a preset error (eviction, shutdown,
// connection loss), discarding the report. It reports whether this call
// performed the abort. Non-eviction aborts count toward the closed
// metric so opened == closed + evicted + active stays an invariant
// (evictions are counted by EvictIdle).
func (sess *Session) abort(cause error) bool {
	if won, _ := sess.end(func() { sess.fail(cause) }); !won {
		return false
	}
	if !errors.Is(cause, ErrEvicted) {
		sess.srv.metrics.closed.Add(1)
	}
	return true
}
