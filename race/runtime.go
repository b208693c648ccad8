package race

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Tid identifies a recorded goroutine.
type Tid = trace.Tid

// ErrThreadLimit is the sticky error of a Runtime asked to register more
// goroutines than a Tid can name. The session ends there: the refused
// goroutine's events, and every later one, are dropped.
var ErrThreadLimit = errors.New("race: a session records at most 65536 goroutines")

// threadLimit is the size of the Tid space; tests lower it.
var threadLimit = 1 << 16

// Runtime records synchronization and memory-access events from a live Go
// program — this repository's stand-in for the RoadRunner instrumentation
// framework. Goroutines report events through a Runtime handle; the
// recorder linearizes them (the analyses consume the linearization order,
// exactly as RoadRunner's analyses do), filters reentrant lock
// acquisitions the way RoadRunner does for Java monitors, and interns
// arbitrary user keys (pointers, strings) as dense variable/lock ids.
//
// Recording is buffered per thread: memory accesses append to the
// recording thread's private buffer with no cross-thread contention, and
// buffers merge into the global linearization only at sequence points —
// synchronization operations (lock, fork/join, volatile), whose relative
// order across threads is the only order the analyses depend on. Any
// interleaving of the buffered accesses between two sequence points is a
// legal linearization of the same execution, so the merged stream is
// equivalent to the old globally-locked recording at a fraction of the
// coordination cost.
//
// Analysis can run in either of the paper's two modes:
//
//   - Record & replay (§4.3): record, then call Snapshot or Analyze.
//   - Online: attach a streaming Engine with WithEngineAttached; merged
//     events feed the engine as they are committed, and Finish returns the
//     engine's report — record-and-analyze in one pass.
//
// Each recorded thread's methods must be called from the single goroutine
// registered for that Tid (the same contract instrumentation frameworks
// impose); different threads' methods may run concurrently.
//
// Runtime methods do not panic on recording mistakes (such as releasing a
// lock that is not held): the first such error is retained and returned by
// Err, Snapshot, Analyze, and Finish.
type Runtime struct {
	internMu sync.Mutex
	vars     map[any]uint32
	locks    map[any]uint32
	vols     map[any]uint32
	locs     map[uintptr]trace.Loc

	// mu guards stream, engine feeding, err, and thread creation.
	mu     sync.Mutex
	stream []trace.Event
	engine EventSink
	err    error

	threads atomic.Pointer[[]*threadState]
}

// threadState is one recorded thread's private recording state. Only the
// thread's own goroutine and the merge points (Join, Snapshot, Finish)
// touch it, under its mutex.
type threadState struct {
	mu        sync.Mutex
	buf       []trace.Event
	holdCount map[uint32]int // reentrancy filtering
	heldOrder []uint32       // outermost-held locks in acquisition order

	// Per-thread intern caches. Interning is the one global rendezvous on
	// the access fast path: every Read/Write used to take internMu twice
	// (key and PC). The caches make repeat interning thread-local — the
	// global maps are consulted (under internMu) only on a thread's first
	// sight of a key or call site. They are accessed without locking,
	// which is safe under the Runtime contract that a thread's methods are
	// called only from its registered goroutine.
	varIDs  map[any]uint32
	lockIDs map[any]uint32
	volIDs  map[any]uint32
	pcLocs  map[uintptr]trace.Loc
}

// RuntimeOption configures a Runtime.
type RuntimeOption func(*Runtime)

// WithEngineAttached feeds every committed event into eng as it is merged
// into the linearization, giving record-and-analyze in one pass. Use
// Finish to close open critical sections and obtain the engine's report.
// The runtime serializes all feeding; the engine must not be fed from
// anywhere else. Attaching an engine built with WithParallelism moves the
// analysis work off the recorded program's sequence points entirely: the
// commit path becomes a batched enqueue and the Table 1 fan-out runs on
// the pipeline's worker goroutines.
func WithEngineAttached(eng *Engine) RuntimeOption {
	return func(rt *Runtime) { rt.engine = eng }
}

// WithSink attaches an arbitrary event sink in place of an in-process
// engine — most usefully a raced client session (race/server.RemoteSession),
// which turns the runtime into the recording half of a remote detector:
// committed events stream over the wire and Finish returns the report the
// server computed. The sink is fed under the same serialization contract as
// an attached engine.
func WithSink(sink EventSink) RuntimeOption {
	return func(rt *Runtime) { rt.engine = sink }
}

// NewRuntime returns a recorder with the main goroutine registered as
// thread 0.
func NewRuntime(opts ...RuntimeOption) *Runtime {
	rt := &Runtime{
		vars:  make(map[any]uint32),
		locks: make(map[any]uint32),
		vols:  make(map[any]uint32),
		locs:  make(map[uintptr]trace.Loc),
	}
	ts := []*threadState{newThreadState()}
	rt.threads.Store(&ts)
	for _, opt := range opts {
		opt(rt)
	}
	return rt
}

func newThreadState() *threadState {
	return &threadState{
		holdCount: make(map[uint32]int),
		varIDs:    make(map[any]uint32),
		lockIDs:   make(map[any]uint32),
		volIDs:    make(map[any]uint32),
		pcLocs:    make(map[uintptr]trace.Loc),
	}
}

// Main returns the main goroutine's thread id (0).
func (rt *Runtime) Main() Tid { return 0 }

// Err returns the first recording error (e.g. release of an unheld lock,
// or an attached engine rejecting the stream), or nil.
func (rt *Runtime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

func (rt *Runtime) thread(t Tid) *threadState {
	ts := *rt.threads.Load()
	if len(ts) == 0 { // ended with ErrThreadLimit: t records into a throwaway, and commit drops it
		return newThreadState()
	}
	return ts[t]
}

func (rt *Runtime) intern(m map[any]uint32, key any) uint32 {
	rt.internMu.Lock()
	defer rt.internMu.Unlock()
	id, ok := m[key]
	if !ok {
		id = uint32(len(m))
		m[key] = id
	}
	return id
}

// internCached resolves key through the thread-local cache, falling back
// to (and populating from) the global intern table only on first sight.
func (rt *Runtime) internCached(local map[any]uint32, global map[any]uint32, key any) uint32 {
	if id, ok := local[key]; ok {
		return id
	}
	id := rt.intern(global, key)
	local[key] = id
	return id
}

// site interns the caller's program counter as a static location, giving
// the paper's "statically distinct race" accounting for free. The PC→Loc
// mapping is cached per thread, so steady-state recording does not touch
// internMu. skip counts stack frames exactly as in runtime.Caller, with
// frame 1 being site's caller.
func (rt *Runtime) site(ts *threadState, skip int) trace.Loc {
	pc, _, _, ok := runtime.Caller(skip)
	if !ok {
		return trace.NoLoc
	}
	if loc, seen := ts.pcLocs[pc]; seen {
		return loc
	}
	rt.internMu.Lock()
	loc, seen := rt.locs[pc]
	if !seen {
		loc = trace.Loc(len(rt.locs) + 1)
		rt.locs[pc] = loc
	}
	rt.internMu.Unlock()
	ts.pcLocs[pc] = loc
	return loc
}

// buffer appends an access event to t's private buffer (no global
// coordination).
func (rt *Runtime) buffer(ts *threadState, e trace.Event) {
	ts.mu.Lock()
	ts.buf = append(ts.buf, e)
	ts.mu.Unlock()
}

// drain takes t's buffered events, leaving the buffer empty.
func (ts *threadState) drain() []trace.Event {
	ts.mu.Lock()
	out := ts.buf
	ts.buf = nil
	ts.mu.Unlock()
	return out
}

// commit merges pending event runs into the global linearization, feeding
// an attached engine. Runs are appended in argument order. Each run commits
// into the engine as one batch (FeedBatch): a per-thread buffer of accesses
// lands in the analysis pipeline with a single append instead of
// event-at-a-time Feed, so the recorded program's sequence points pay one
// commit per run rather than per event.
func (rt *Runtime) commit(runs ...[]trace.Event) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, run := range runs {
		if len(run) == 0 || rt.err != nil { // a failed session's stream is never read again
			continue
		}
		rt.stream = append(rt.stream, run...)
		if rt.engine != nil {
			if err := rt.engine.FeedBatch(run); err != nil {
				rt.err = err
			}
		}
	}
}

// syncPoint drains t's buffer, appends the synchronization event e, and
// commits the run — the per-thread buffer merge at a sequence point.
func (rt *Runtime) syncPoint(ts *threadState, e trace.Event) {
	ts.mu.Lock()
	run := append(ts.buf, e)
	ts.buf = nil
	ts.mu.Unlock()
	rt.commit(run)
}

// Go registers a new goroutine forked by parent and returns its thread id.
// Call it in the parent before starting the goroutine. Past the Tid space it
// fails the session with ErrThreadLimit.
func (rt *Runtime) Go(parent Tid) Tid {
	rt.mu.Lock()
	cur := *rt.threads.Load()
	if n := len(cur); n == 0 || n == threadLimit { // ended, or ending here
		rt.threads.Store(new([]*threadState))
		if rt.err == nil {
			rt.err = ErrThreadLimit
		}
		rt.mu.Unlock()
		return parent
	}
	child := Tid(len(cur))
	next := make([]*threadState, len(cur)+1)
	copy(next, cur)
	next[child] = newThreadState()
	rt.threads.Store(&next)
	rt.mu.Unlock()

	rt.syncPoint(rt.thread(parent), trace.Event{T: parent, Op: trace.OpFork, Targ: uint32(child)})
	return child
}

// Join records that parent joined (awaited) child. The child goroutine
// must have finished recording; its remaining buffered events merge before
// the join event.
func (rt *Runtime) Join(parent, child Tid) {
	childRun := rt.thread(child).drain()
	ts := rt.thread(parent)
	ts.mu.Lock()
	parentRun := append(ts.buf, trace.Event{T: parent, Op: trace.OpJoin, Targ: uint32(child)})
	ts.buf = nil
	ts.mu.Unlock()
	rt.commit(childRun, parentRun)
}

// Read records a read of the variable identified by key, attributed to
// Read's caller.
func (rt *Runtime) Read(t Tid, key any) {
	rt.ReadSkip(t, key, 1)
}

// Write records a write of the variable identified by key, attributed to
// Write's caller.
func (rt *Runtime) Write(t Tid, key any) {
	rt.WriteSkip(t, key, 1)
}

// ReadSkip records a read of key attributed to a call site skip frames
// above ReadSkip's caller: skip 0 attributes to the immediate caller
// (like Read), skip 1 to the caller's caller, and so on. Instrumentation
// wrappers (such as race/sync's shadow primitives) use it so recorded
// sites point at user code rather than at the wrapper.
func (rt *Runtime) ReadSkip(t Tid, key any, skip int) {
	ts := rt.thread(t)
	rt.buffer(ts, trace.Event{T: t, Op: trace.OpRead, Targ: rt.internCached(ts.varIDs, rt.vars, key), Loc: rt.site(ts, 2+skip)})
}

// WriteSkip records a write of key attributed skip frames above
// WriteSkip's caller (see ReadSkip).
func (rt *Runtime) WriteSkip(t Tid, key any, skip int) {
	ts := rt.thread(t)
	rt.buffer(ts, trace.Event{T: t, Op: trace.OpWrite, Targ: rt.internCached(ts.varIDs, rt.vars, key), Loc: rt.site(ts, 2+skip)})
}

// Acquire records a lock acquisition. Reentrant acquisitions are counted
// and filtered: only the outermost acquisition emits an event.
func (rt *Runtime) Acquire(t Tid, lock any) {
	ts := rt.thread(t)
	m := rt.internCached(ts.lockIDs, rt.locks, lock)
	ts.mu.Lock()
	ts.holdCount[m]++
	outermost := ts.holdCount[m] == 1
	if outermost {
		ts.heldOrder = append(ts.heldOrder, m)
		run := append(ts.buf, trace.Event{T: t, Op: trace.OpAcquire, Targ: m})
		ts.buf = nil
		ts.mu.Unlock()
		rt.commit(run)
		return
	}
	ts.mu.Unlock()
}

// Release records a lock release; only the outermost release emits.
// Releasing a lock the thread does not hold records a runtime error (see
// Err) instead of panicking.
func (rt *Runtime) Release(t Tid, lock any) {
	ts := rt.thread(t)
	m := rt.internCached(ts.lockIDs, rt.locks, lock)
	ts.mu.Lock()
	if ts.holdCount[m] == 0 {
		ts.mu.Unlock()
		rt.fail(fmt.Errorf("race: thread %d releases lock it does not hold", t))
		return
	}
	ts.holdCount[m]--
	if ts.holdCount[m] == 0 {
		for i := len(ts.heldOrder) - 1; i >= 0; i-- {
			if ts.heldOrder[i] == m {
				ts.heldOrder = append(ts.heldOrder[:i], ts.heldOrder[i+1:]...)
				break
			}
		}
		run := append(ts.buf, trace.Event{T: t, Op: trace.OpRelease, Targ: m})
		ts.buf = nil
		ts.mu.Unlock()
		rt.commit(run)
		return
	}
	ts.mu.Unlock()
}

func (rt *Runtime) fail(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.mu.Unlock()
}

// VolatileRead records an atomic/volatile load of key.
func (rt *Runtime) VolatileRead(t Tid, key any) {
	ts := rt.thread(t)
	rt.syncPoint(ts, trace.Event{T: t, Op: trace.OpVolatileRead, Targ: rt.internCached(ts.volIDs, rt.vols, key)})
}

// VolatileWrite records an atomic/volatile store of key.
func (rt *Runtime) VolatileWrite(t Tid, key any) {
	ts := rt.thread(t)
	rt.syncPoint(ts, trace.Event{T: t, Op: trace.OpVolatileWrite, Targ: rt.internCached(ts.volIDs, rt.vols, key)})
}

// volSlot composes a user key with a slot index into one interned
// volatile identity. Keyed and unkeyed volatiles occupy disjoint parts of
// the id space: VolatileRead(k) and VolatileReadKeyed(k, 0) are different
// volatiles.
type volSlot struct {
	key  any
	slot uint32
}

// VolatileReadKeyed records an atomic/volatile load of slot `slot` of the
// multi-slot volatile identified by key. Multi-slot volatiles let one
// synchronization object carry several independently ordered channels of
// publication — race/sync uses them to lower buffered channels (one slot
// per buffer cell), rendezvous handshakes, and reader/writer ordering
// onto the analyses' volatile rules. key must be comparable.
func (rt *Runtime) VolatileReadKeyed(t Tid, key any, slot uint32) {
	ts := rt.thread(t)
	rt.syncPoint(ts, trace.Event{T: t, Op: trace.OpVolatileRead, Targ: rt.internCached(ts.volIDs, rt.vols, volSlot{key, slot})})
}

// VolatileWriteKeyed records an atomic/volatile store of slot `slot` of
// the multi-slot volatile identified by key (see VolatileReadKeyed).
func (rt *Runtime) VolatileWriteKeyed(t Tid, key any, slot uint32) {
	ts := rt.thread(t)
	rt.syncPoint(ts, trace.Event{T: t, Op: trace.OpVolatileWrite, Targ: rt.internCached(ts.volIDs, rt.vols, volSlot{key, slot})})
}

// flushAll merges every thread's remaining buffer into the linearization,
// in thread-id order, and returns the per-thread open-lock stacks observed
// at the merge.
func (rt *Runtime) flushAll() [][]uint32 {
	threads := *rt.threads.Load()
	heldOrders := make([][]uint32, len(threads))
	for t, ts := range threads {
		run := ts.drain()
		rt.commit(run)
		ts.mu.Lock()
		heldOrders[t] = append([]uint32(nil), ts.heldOrder...)
		ts.mu.Unlock()
	}
	return heldOrders
}

// closingReleases synthesizes the releases that close every open critical
// section: threads in ascending id order, and each thread's sections in
// LIFO order (reverse acquisition order), so nested sections close
// deterministically innermost-first.
func closingReleases(heldOrders [][]uint32) []trace.Event {
	var out []trace.Event
	for t, order := range heldOrders {
		for i := len(order) - 1; i >= 0; i-- {
			out = append(out, trace.Event{T: Tid(t), Op: trace.OpRelease, Targ: order[i]})
		}
	}
	return out
}

// Snapshot returns the recorded trace. The recorder can keep recording;
// the snapshot is independent. Threads must be quiescent (between recorded
// operations) for the snapshot to be a consistent cut. Open critical
// sections at snapshot time are legal executions, but the snapshot closes
// them for the trace checker with deterministic LIFO releases (per thread
// in ascending id order, each thread's sections innermost-first).
func (rt *Runtime) Snapshot() (*Trace, error) {
	heldOrders := rt.flushAll()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err != nil {
		return nil, rt.err
	}
	rt.internMu.Lock()
	tr := &trace.Trace{
		Events:    append([]trace.Event(nil), rt.stream...),
		Threads:   len(heldOrders),
		Vars:      len(rt.vars),
		Locks:     len(rt.locks),
		Volatiles: len(rt.vols),
	}
	rt.internMu.Unlock()
	tr.Events = append(tr.Events, closingReleases(heldOrders)...)
	if err := trace.Check(tr); err != nil {
		return nil, fmt.Errorf("race: recorded trace is ill-formed: %w", err)
	}
	return tr, nil
}

// Analyze snapshots the recording and runs the (rel, lvl) analysis —
// the record & replay mode. For one-pass online analysis attach an Engine
// and use Finish instead.
func (rt *Runtime) Analyze(rel Relation, lvl Level) (*Report, error) {
	tr, err := rt.Snapshot()
	if err != nil {
		return nil, err
	}
	return Analyze(tr, rel, lvl)
}

// Finish ends recording with an attached engine: remaining per-thread
// buffers merge, open critical sections close with deterministic LIFO
// releases, the closing events feed the engine, and the engine's report is
// returned. After Finish the runtime must not record further events.
func (rt *Runtime) Finish() (*Report, error) {
	rt.mu.Lock()
	eng := rt.engine
	rt.mu.Unlock()
	if eng == nil {
		return nil, fmt.Errorf("race: Finish requires an attached engine (WithEngineAttached)")
	}
	heldOrders := rt.flushAll()
	closing := closingReleases(heldOrders)
	// Mirror the closing releases in the per-thread stacks so a later
	// Snapshot does not close them twice.
	threads := *rt.threads.Load()
	for t, ts := range threads {
		ts.mu.Lock()
		for _, m := range heldOrders[t] {
			delete(ts.holdCount, m)
		}
		ts.heldOrder = nil
		ts.mu.Unlock()
	}
	rt.commit(closing)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err != nil {
		return nil, rt.err
	}
	return eng.Close()
}

// Locked runs fn while holding the recorded lock — a convenience wrapper
// pairing Acquire/Release.
func (rt *Runtime) Locked(t Tid, lock any, fn func()) {
	rt.Acquire(t, lock)
	defer rt.Release(t, lock)
	fn()
}
