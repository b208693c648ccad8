package race

// This file implements the engine's parallel fan-out pipeline: with
// WithParallelism(n), the engine's computations (one per relation shared by
// FT2/FTO/Unopt cells, one per SmartTrack cell — see computation) run on n
// worker goroutines pulling from one shared ring of event batches. Each
// computation has a cursor into the ring; a free worker claims the
// unclaimed computation with batches pending and the highest measured cost
// per event, applies every pending batch to it, and releases it. All
// computations lag the same stream, so costliest-first is longest-
// processing-time-first scheduling, and the costs are measured on the
// trace being analyzed (two clock reads per computation per batch), not
// read from a table calibrated on another.
//
// FeedBatch stays a cheap enqueue — the well-formedness checker (and a
// vindicating engine's retention) runs on the feeding goroutine, so errors
// still surface synchronously, and the run lands in the current batch,
// which flushes when full, at synchronization events (when an OnRace
// callback wants timely delivery), and at Close.
//
// Determinism: every computation still consumes the complete stream in
// feed order, one worker at a time, so the Close report is identical to
// the sequential engine's, and races delivered to OnRace carry per-analysis
// sequence numbers (RaceInfo.Seq) that match detection order exactly.
// Callbacks are invoked from one drainer goroutine, never concurrently.
//
// Failure: a panicking analysis poisons the engine — its computation stays
// claimed for good, so nothing touches its torn state, and the panic
// surfaces as an error from the next FeedBatch or Sync, or from Close.

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
)

const (
	// batchSize is the events per published batch: per-batch coordination
	// (one publish, one claim per computation at most) vanishes per event,
	// and with ringCapacity it bounds the events in flight.
	batchSize = 1024
	// ringCapacity is the number of in-flight batches the slowest
	// computation may lag behind the producer before FeedBatch backpressures.
	ringCapacity = 64
	// minTimedBatch is the batch length below which a computation's pass
	// goes untimed: two clock reads would rival the work they measure.
	minTimedBatch = 64
)

// eventBatch is one batch of events and its same-epoch bitmap, written by
// the producer before the batch is published, read by every computation,
// and recycled once the last cursor has passed it.
type eventBatch struct {
	evs  []Event
	same analysis.Same
}

// batchPool recycles event batches between the producer and the last
// computation to finish each batch.
var batchPool = sync.Pool{New: func() any { return new(eventBatch) }}

// task is a computation's place in the pipeline.
type task struct {
	*computation
	labels context.Context // pprof label computation=<name>, prebuilt: a claim allocates nothing
	busy   *atomic.Int64   // ns behind <prefix>_computation_busy_seconds_total; nil without metrics

	// Guarded by pipeline.mu.
	next    uint64  // cursor: batches applied so far
	claimed bool    // a worker is applying batches to it (for good, once its analysis panicked)
	cost    float64 // measured ns/event, smoothed; 0 until a timed batch
}

// syncSentinel marks a RaceInfo flowing through raceCh as Engine.Sync's
// drainer barrier rather than a real race (Seq is 0-based for real races,
// so -1 can never collide).
const syncSentinel = -1

// pipeline is the engine's parallel runtime state.
type pipeline struct {
	tasks     []*task
	batch     int // events per published batch (batchSize outside tests)
	cur       *eventBatch
	raceCh    chan RaceInfo
	emit      func(RaceInfo) // sends to raceCh; nil without an OnRace callback
	syncAck   chan struct{}  // drainer acks Sync's sentinel here
	drainDone chan struct{}
	workers   sync.WaitGroup

	mu     sync.Mutex
	work   sync.Cond                 // workers wait here for something to claim
	room   sync.Cond                 // the producer waits here: for a free slot, or for Sync's barrier
	ring   [ringCapacity]*eventBatch // batches [head, tail), batch i in slot i%ringCapacity
	head   uint64                    // batches every task has applied; their slots are free
	tail   uint64                    // batches published
	closed bool                      // no more batches will be published
	errs   []error
	dead   atomic.Bool // fast-path flag: some analysis or callback has failed
	cbDead bool        // drainer-local: the OnRace callback has panicked
}

// deliver invokes the user's OnRace callback, converting a panic into
// engine poison — the sequential engine lets such a panic unwind through
// FeedBatch where the caller can recover it; on the drainer goroutine there is
// no caller, so the pipeline's panic contract (recover into an error)
// applies here too.
func (p *pipeline) deliver(fn func(RaceInfo), ri RaceInfo) {
	defer func() {
		if r := recover(); r != nil {
			p.cbDead = true
			p.fail(fmt.Errorf("race: OnRace callback panicked: %v", r))
		}
	}()
	fn(ri)
}

// startPipeline starts n workers over the engine's computations, plus the
// single OnRace drainer when a callback is installed.
func (e *Engine) startPipeline(n, batch int) {
	p := &pipeline{batch: batch, cur: newBatch()}
	p.work.L, p.room.L = &p.mu, &p.mu
	for i := range e.comps {
		c := &e.comps[i]
		t := &task{computation: c, labels: pprof.WithLabels(context.Background(), pprof.Labels("computation", c.name))}
		if e.met != nil {
			t.busy = e.met.computationBusy(c.name)
		}
		p.tasks = append(p.tasks, t)
	}
	if e.onRace != nil {
		p.raceCh = make(chan RaceInfo, 256)
		p.emit = func(ri RaceInfo) { p.raceCh <- ri }
		p.syncAck = make(chan struct{})
		p.drainDone = make(chan struct{})
		go func() {
			defer close(p.drainDone)
			// The drainer must keep consuming even after a callback
			// panics — workers block sending to raceCh otherwise — so each
			// delivery recovers individually and a failed callback poisons
			// the engine and mutes further deliveries. Sync's sentinel
			// rides the same channel, so acking it means every race queued
			// before the barrier has been delivered.
			for ri := range p.raceCh {
				if ri.Seq == syncSentinel {
					p.syncAck <- struct{}{}
					continue
				}
				if !p.cbDead {
					p.deliver(e.onRace, ri)
				}
			}
		}()
	}
	p.workers.Add(n)
	for w := 0; w < n; w++ {
		go e.runWorker(p)
	}
	e.pipe = p
}

func newBatch() *eventBatch {
	b := batchPool.Get().(*eventBatch)
	b.evs, b.same = b.evs[:0], b.same[:0]
	return b
}

// claim picks a free worker's next task: of the unclaimed tasks with
// batches pending, the one that costs most per event. Callers hold p.mu.
func (p *pipeline) claim() *task {
	var best *task
	for _, t := range p.tasks {
		if !t.claimed && t.next < p.tail && (best == nil || t.cost > best.cost) {
			best = t
		}
	}
	return best
}

// runWorker claims a task, applies its pending batches, releases it, and
// repeats, until the pipeline is closed and nothing is left to claim (a
// task another worker still holds is that worker's to finish).
func (e *Engine) runWorker(p *pipeline) {
	defer p.workers.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		t := p.claim()
		if t == nil {
			if p.closed {
				return
			}
			p.work.Wait()
			continue
		}
		t.claimed = true
		lo, hi := t.next, p.tail
		p.mu.Unlock()
		ns, n, ok := e.applyPending(p, t, lo, hi)
		p.mu.Lock()
		if !ok {
			return // t stays claimed; fail has woken the producer
		}
		t.next, t.claimed = hi, false
		if n > 0 {
			if t.busy != nil {
				t.busy.Add(int64(ns))
			}
			sample := float64(ns) / float64(n)
			if t.cost == 0 {
				t.cost = sample
			} else {
				t.cost += (sample - t.cost) / 4
			}
		}
		p.recycle()
	}
}

// applyPending applies batches [lo, hi) to t's computation, without the lock:
// the slots cannot be reused before t.next passes them. It returns the time
// and event count of the batches it timed (publishing their races included);
// ok is false if the analysis panicked, which poisons the engine.
func (e *Engine) applyPending(p *pipeline, t *task, lo, hi uint64) (ns time.Duration, n int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(fmt.Errorf("race: analysis panicked in pipeline worker: %v", r))
			ok = false
		}
	}()
	pprof.SetGoroutineLabels(t.labels)
	for i := lo; i < hi; i++ {
		b := p.ring[i%ringCapacity]
		evs := b.evs
		var t0 time.Time
		if len(evs) >= minTimedBatch {
			t0 = time.Now()
		}
		e.apply(t.computation, evs, b.same, p.emit)
		if len(evs) >= minTimedBatch {
			ns += time.Since(t0)
			n += len(evs)
		}
	}
	return ns, n, true
}

// recycle frees the batches every task has now applied and wakes a producer
// waiting for room or for Sync's barrier. Callers hold p.mu.
func (p *pipeline) recycle() {
	low := p.tail
	for _, t := range p.tasks {
		low = min(low, t.next)
	}
	if low == p.head {
		return
	}
	for ; p.head < low; p.head++ {
		slot := &p.ring[p.head%ringCapacity]
		batchPool.Put(*slot)
		*slot = nil
	}
	p.room.Broadcast()
}

// fail records a worker or callback error, flips the poison flag, and wakes
// a producer waiting on cursors that may now never move.
func (p *pipeline) fail(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.dead.Store(true)
	p.room.Broadcast()
	p.mu.Unlock()
}

// firstErr returns the first recorded worker error, if any.
func (p *pipeline) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	return nil
}

// enqueue appends a run of events to the current batch in one append — the
// pipeline half of the engine's front end — and marks the run's same-epoch
// accesses into the batch's bitmap at the run's offset, so that workers only
// read the bits. Flush triggers: batch size, and (when an OnRace callback
// wants timely delivery) the presence of any synchronization event in the
// run — run-granular, so commit-per-run batching is kept even on engines
// with callbacks installed (every raced session has one); one-event runs
// make it event-granular there.
func (e *Engine) enqueue(evs []Event) error {
	p := e.pipe
	b := p.cur
	off := len(b.evs)
	b.evs = append(b.evs, evs...)
	if e.mark != nil {
		b.same = b.same.Cover(len(b.evs))
		e.mark.Mark(evs, b.same, off)
	}
	if len(b.evs) >= p.batch {
		return e.flushBatch()
	}
	if p.raceCh != nil {
		for _, ev := range evs {
			if ev.Op.IsSync() {
				return e.flushBatch()
			}
		}
	}
	return nil
}

// flushBatch publishes the current batch to the ring, waiting for a free
// slot while the slowest computation is a full ring behind. On a dead
// pipeline the batch is abandoned: the engine is poisoned either way.
func (e *Engine) flushBatch() error {
	p := e.pipe
	if len(p.cur.evs) == 0 {
		return nil
	}
	p.mu.Lock()
	for p.tail-p.head == ringCapacity && !p.dead.Load() {
		p.room.Wait()
	}
	if p.dead.Load() {
		p.mu.Unlock()
		return e.checkPipe()
	}
	if e.met != nil {
		e.met.ringOcc.Observe(float64(p.tail - p.head))
	}
	p.ring[p.tail%ringCapacity] = p.cur
	p.tail++
	p.work.Broadcast()
	p.mu.Unlock()
	p.cur = newBatch()
	return nil
}

// Sync is a mid-stream barrier: it returns once every event fed so far
// has been applied by every analysis, surfacing any pipeline error that
// occurred on the way. On a sequential engine (or before any events) it
// is a no-op — analyses there run synchronously in FeedBatch. The raced
// server uses it to give the wire protocol's flush frame real
// applied-up-to-here semantics on parallel sessions. Like FeedBatch, Sync
// must not race with other engine calls.
func (e *Engine) Sync() error {
	if e.closed {
		return errors.New("race: Sync on closed engine")
	}
	if e.err != nil {
		return e.err
	}
	if e.pipe == nil {
		return nil
	}
	p := e.pipe
	if err := e.checkPipe(); err != nil {
		return err
	}
	if err := e.flushBatch(); err != nil {
		return err
	}
	// Every cursor at the tail means every computation has applied every
	// batch; a dying worker wakes the wait too, so it cannot hold the
	// barrier open forever.
	p.mu.Lock()
	for p.head < p.tail && !p.dead.Load() {
		p.room.Wait()
	}
	p.mu.Unlock()
	if p.raceCh != nil {
		// The workers have pushed every pre-barrier race into raceCh; a
		// sentinel behind them makes the drainer's ack mean those races
		// have also been DELIVERED, so state observed through the OnRace
		// callback (e.g. a raced session's live race list) is current.
		p.raceCh <- RaceInfo{Seq: syncSentinel}
		<-p.syncAck
	}
	return e.checkPipe()
}

// drainPipeline, on a parallel engine, flushes the trailing partial batch,
// lets the workers finish what is published and joins them, then waits for
// the drainer; the first worker error, if any, becomes the engine's unless it
// already has one.
func (e *Engine) drainPipeline() {
	p := e.pipe
	if p == nil {
		return
	}
	err := e.flushBatch()
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.workers.Wait()
	if p.raceCh != nil {
		close(p.raceCh)
		<-p.drainDone
	}
	if werr := p.firstErr(); werr != nil {
		err = werr
	}
	if e.err == nil {
		e.err = err
	}
}
