package race

// This file implements the engine's parallel fan-out pipeline: with
// WithParallelism(n), each shard of the configured analyses runs on a
// dedicated worker goroutine fed by a single-producer/single-consumer ring
// of event batches, so independent Table 1 cells analyze the same event
// stream concurrently instead of serially. Feed stays a cheap enqueue —
// the well-formedness checker (and a vindicating engine's retention) runs
// on the feeding goroutine, so errors still surface synchronously, and the
// run lands in the current batch, which flushes when full, at
// synchronization events (when an OnRace callback wants timely delivery),
// and at Close.
//
// Determinism: every analysis still consumes the complete stream in feed
// order, so the Close report is identical to the sequential engine's, and
// races delivered to OnRace carry per-analysis sequence numbers
// (RaceInfo.Seq) that match detection order exactly. Callbacks are invoked
// from one drainer goroutine, never concurrently.
//
// Failure: a panicking analysis poisons the engine — its worker closes its
// ring so the producer cannot block, and the panic surfaces as an error
// from the next Feed or from Close.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultBatchSize is the pipeline batch size WithBatchSize(0) resolves
// to: large enough that per-batch coordination (one ring push per worker
// plus a possible wakeup) vanishes per event.
const DefaultBatchSize = 1024

const (
	// ringCapacity is the number of in-flight batches each worker may lag
	// behind the producer before Feed backpressures.
	ringCapacity = 64
	// ringSpins bounds the lock-free retry loop before a ring operation
	// parks on the slow-path condition variable.
	ringSpins = 256
)

// eventBatch is one batch of events shared by every worker; refs counts
// the workers still due to process it, and the last one recycles it. ack,
// when non-nil, is closed by the consuming worker once the batch has been
// fully processed — the barrier primitive Engine.Sync rides on.
type eventBatch struct {
	evs  []Event
	refs atomic.Int32
	ack  chan struct{}
}

// batchPool recycles event batches between the producer and the last
// worker to finish each batch.
var batchPool = sync.Pool{New: func() any { return new(eventBatch) }}

// spscRing is a bounded single-producer/single-consumer queue of batches.
// The fast paths are purely atomic; after a bounded spin both sides park
// on a condition variable, and each successful operation wakes the other
// side only when it is actually waiting.
type spscRing struct {
	buf    []*eventBatch
	mask   uint64
	head   atomic.Uint64 // next slot the consumer reads
	_      [56]byte      // keep producer and consumer indices off one cache line
	tail   atomic.Uint64 // next slot the producer writes
	_      [56]byte
	sleep  atomic.Int32 // parked sides
	mu     sync.Mutex
	cond   sync.Cond
	closed atomic.Bool
}

func newRing(capacity int) *spscRing {
	size := 1
	for size < capacity {
		size <<= 1
	}
	r := &spscRing{buf: make([]*eventBatch, size), mask: uint64(size - 1)}
	r.cond.L = &r.mu
	return r
}

// wake signals the other side if it is parked.
func (r *spscRing) wake() {
	if r.sleep.Load() != 0 {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// push enqueues b, blocking while the ring is full. It returns false if
// the ring was closed (consumer death), so the producer can surface the
// worker's error instead of blocking forever.
func (r *spscRing) push(b *eventBatch) bool {
	spins := 0
	for {
		if r.closed.Load() {
			return false
		}
		t := r.tail.Load()
		if t-r.head.Load() < uint64(len(r.buf)) {
			r.buf[t&r.mask] = b
			r.tail.Store(t + 1)
			r.wake()
			return true
		}
		if spins++; spins < ringSpins {
			runtime.Gosched()
			continue
		}
		r.sleep.Add(1)
		r.mu.Lock()
		for !r.closed.Load() && r.tail.Load()-r.head.Load() >= uint64(len(r.buf)) {
			r.cond.Wait()
		}
		r.mu.Unlock()
		r.sleep.Add(-1)
		spins = 0
	}
}

// pop dequeues the next batch, blocking while the ring is empty. ok is
// false once the ring is closed and drained.
func (r *spscRing) pop() (b *eventBatch, ok bool) {
	spins := 0
	for {
		h := r.head.Load()
		if h < r.tail.Load() {
			b = r.buf[h&r.mask]
			r.buf[h&r.mask] = nil
			r.head.Store(h + 1)
			r.wake()
			return b, true
		}
		if r.closed.Load() {
			return nil, false
		}
		if spins++; spins < ringSpins {
			runtime.Gosched()
			continue
		}
		r.sleep.Add(1)
		r.mu.Lock()
		for !r.closed.Load() && r.head.Load() >= r.tail.Load() {
			r.cond.Wait()
		}
		r.mu.Unlock()
		r.sleep.Add(-1)
		spins = 0
	}
}

// close marks the ring finished; blocked sides unblock. Pushed batches
// remain poppable (close-and-drain).
func (r *spscRing) close() {
	r.closed.Store(true)
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// pworker is one pipeline worker: a shard of the fan-out's analyses and
// the ring feeding them.
type pworker struct {
	ring *spscRing
	idx  int   // worker/shard index, stable for metrics labelling
	dets []int // indices into Engine.dets, in fan-out order
	done chan struct{}
}

// syncSentinel marks a RaceInfo flowing through raceCh as Engine.Sync's
// drainer barrier rather than a real race (Seq is 0-based for real races,
// so -1 can never collide).
const syncSentinel = -1

// pipeline is the engine's parallel runtime state.
type pipeline struct {
	workers   []*pworker
	batchSize int
	cur       *eventBatch
	raceCh    chan RaceInfo
	syncAck   chan struct{} // drainer acks Sync's sentinel here
	drainDone chan struct{}

	mu     sync.Mutex
	errs   []error
	dead   atomic.Bool // fast-path flag: some worker or callback has failed
	cbDead bool        // drainer-local: the OnRace callback has panicked
}

// deliver invokes the user's OnRace callback, converting a panic into
// engine poison — the sequential engine lets such a panic unwind through
// Feed where the caller can recover it; on the drainer goroutine there is
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

// startPipeline shards the engine's analyses over n workers and starts
// them, plus the single OnRace drainer when a callback is installed.
func (e *Engine) startPipeline(n, batchSize int) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	p := &pipeline{batchSize: batchSize, cur: newBatch()}
	if e.onRace != nil {
		p.raceCh = make(chan RaceInfo, 256)
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
	for w := 0; w < n; w++ {
		pw := &pworker{ring: newRing(ringCapacity), idx: w, done: make(chan struct{})}
		for di := w; di < len(e.dets); di += n {
			pw.dets = append(pw.dets, di)
		}
		p.workers = append(p.workers, pw)
		go e.runWorker(p, pw)
	}
	e.pipe = p
}

func newBatch() *eventBatch {
	b := batchPool.Get().(*eventBatch)
	b.evs = b.evs[:0]
	b.ack = nil
	return b
}

// runWorker drains the worker's ring, feeding every event of every batch
// to each analysis of the shard in order, then publishing any new races.
func (e *Engine) runWorker(p *pipeline, w *pworker) {
	defer close(w.done)
	defer func() {
		if r := recover(); r != nil {
			p.fail(fmt.Errorf("race: analysis panicked in pipeline worker: %v", r))
			// Unblock the producer: a closed ring makes push return false,
			// which Feed turns into the recorded error.
			w.ring.close()
		}
	}()
	var shardEvents *obs.Counter
	if e.met != nil {
		shardEvents = e.met.shardCounter(w.idx)
	}
	for {
		b, ok := w.ring.pop()
		if !ok {
			return
		}
		for _, di := range w.dets {
			d := &e.dets[di]
			for _, ev := range b.evs {
				d.a.Handle(ev)
			}
			if p.raceCh != nil {
				e.deliverRaces(d, p.raceCh)
			} else if e.met != nil {
				e.countRaces(d)
			}
		}
		if shardEvents != nil {
			shardEvents.Add(uint64(len(b.evs)))
		}
		if b.ack != nil {
			close(b.ack)
		}
		if b.refs.Add(-1) == 0 {
			batchPool.Put(b)
		}
	}
}

// countRaces advances d's delivery cursor counting new races into the
// metrics registry, for pipelines with no OnRace drainer installed.
func (e *Engine) countRaces(d *engineDet) {
	for n := d.a.Races().RaceCount(); d.seen < n; d.seen++ {
		e.met.races.Inc()
	}
}

// deliverRaces publishes d's newly detected races in detection order,
// stamped with their per-analysis sequence numbers.
func (e *Engine) deliverRaces(d *engineDet, sink chan<- RaceInfo) {
	col := d.a.Races()
	for n := col.RaceCount(); d.seen < n; d.seen++ {
		if e.met != nil {
			e.met.races.Inc()
		}
		rc := col.RaceAt(d.seen)
		sink <- RaceInfo{
			Analysis: d.entry.Name,
			Seq:      d.seen,
			Var:      rc.Var,
			Loc:      uint32(rc.Loc),
			Index:    rc.Index,
			Write:    rc.Write,
		}
	}
}

// fail records a worker error and flips the poison flag.
func (p *pipeline) fail(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
	p.dead.Store(true)
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
// pipeline half of the engine's front end. Flush triggers: batch size, and
// (when an OnRace callback wants timely delivery) the presence of any
// synchronization event in the run — run-granular, so commit-per-run
// batching is kept even on engines with callbacks installed (every raced
// session has one); Feed's one-event runs make it event-granular there.
func (e *Engine) enqueue(evs []Event) error {
	p := e.pipe
	p.cur.evs = append(p.cur.evs, evs...)
	if len(p.cur.evs) >= p.batchSize {
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

// flushBatch publishes the current batch to every worker ring.
func (e *Engine) flushBatch() error {
	p := e.pipe
	if len(p.cur.evs) == 0 {
		return nil
	}
	b := p.cur
	// A failed push (dead worker) abandons the batch: it was already
	// delivered to earlier rings, so retrying would make surviving workers
	// process the same events twice. The engine is poisoned either way.
	p.cur = newBatch()
	b.refs.Store(int32(len(p.workers)))
	if e.met != nil {
		// Occupancy of the laggiest ring, sampled once per flush: the
		// producer owns tail and reads head, so both loads are safe here.
		var occ uint64
		for _, w := range p.workers {
			if d := w.ring.tail.Load() - w.ring.head.Load(); d > occ {
				occ = d
			}
		}
		e.met.ringOcc.Observe(float64(occ))
	}
	for _, w := range p.workers {
		if !w.ring.push(b) {
			if err := p.firstErr(); err != nil {
				e.err = err
			} else {
				e.err = fmt.Errorf("race: pipeline worker exited early")
			}
			return e.err
		}
	}
	return nil
}

// Sync is a mid-stream barrier: it returns once every event fed so far
// has been applied by every analysis, surfacing any pipeline error that
// occurred on the way. On a sequential engine (or before any events) it
// is a no-op — analyses there run synchronously in Feed/FeedBatch. The
// raced server uses it to give the wire protocol's flush frame real
// applied-up-to-here semantics on parallel sessions. Like Feed, Sync must
// not race with other engine calls.
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
	workerDead := func() error {
		if e.err = p.firstErr(); e.err == nil {
			e.err = errors.New("race: pipeline worker exited early")
		}
		return e.err
	}
	// One empty acked batch per worker ring: its ack closing means that
	// worker consumed everything enqueued before it. The select against
	// the worker's done channel keeps a dying worker from holding the
	// barrier open forever.
	for _, w := range p.workers {
		b := newBatch()
		b.ack = make(chan struct{})
		b.refs.Store(1)
		if !w.ring.push(b) {
			return workerDead()
		}
		select {
		case <-b.ack:
		case <-w.done:
			return workerDead()
		}
	}
	if p.raceCh != nil {
		// The workers have pushed every pre-barrier race into raceCh; a
		// sentinel behind them makes the drainer's ack mean those races
		// have also been DELIVERED, so state observed through the OnRace
		// callback (e.g. a raced session's live race list) is current.
		p.raceCh <- RaceInfo{Seq: syncSentinel}
		<-p.syncAck
	}
	if err := p.firstErr(); err != nil {
		e.err = err
		return err
	}
	return nil
}

// drainPipeline flushes the trailing partial batch, stops the workers, and
// waits for the drainer; it returns the first worker error, if any.
func (e *Engine) drainPipeline() error {
	p := e.pipe
	ferr := e.flushBatch()
	for _, w := range p.workers {
		w.ring.close()
	}
	for _, w := range p.workers {
		<-w.done
	}
	if p.raceCh != nil {
		close(p.raceCh)
		<-p.drainDone
	}
	if err := p.firstErr(); err != nil {
		return err
	}
	return ferr
}
