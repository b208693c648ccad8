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
//   - Online: attach a streaming Engine (or a remote session) with
//     WithEngineAttached; merged events feed it as they are committed, and
//     Finish returns its report — record-and-analyze in one pass.
//
// Each recorded thread's methods must be called from the single goroutine
// registered for that Tid (the same contract instrumentation frameworks
// impose); different threads' methods may run concurrently.
//
// Runtime methods do not panic on recording mistakes (releasing a lock
// that is not held, a Tid the runtime never issued, a thread joining
// itself): the first such error is retained and returned by Err,
// Snapshot, Analyze, and Finish.
type Runtime struct {
	// internMu guards the global intern tables, one per kind of key.
	internMu sync.Mutex
	vars     map[any]uint32
	locks    map[any]uint32
	vols     map[any]uint32
	locs     map[uintptr]uint32

	// mu guards stream, engine feeding, err, and thread creation.
	mu     sync.Mutex
	stream []trace.Event
	engine EventSink
	err    error

	threads atomic.Pointer[[]*threadState]
}

// threadState is one recorded thread's private recording state. Only the
// thread's own goroutine and the merge points (Join, Snapshot, Finish)
// touch its buffer and held set, under its mutex.
type threadState struct {
	mu   sync.Mutex
	buf  []trace.Event
	held []heldLock // outermost-held locks in acquisition order

	// Per-thread intern caches, one per global table: repeat interning is
	// thread-local, and internMu is taken only on a thread's first sight of
	// a key or call site. They are accessed without locking, which is safe
	// under the contract that a thread's methods are called only from its
	// registered goroutine.
	varIDs  map[any]uint32
	lockIDs map[any]uint32
	volIDs  map[any]uint32
	pcLocs  map[uintptr]uint32
}

// heldLock is one lock a thread holds, with its reentrant depth.
type heldLock struct {
	lock  uint32
	depth int
}

// RuntimeOption configures a Runtime.
type RuntimeOption func(*Runtime)

// WithEngineAttached feeds every committed run into sink through FeedBatch
// as it is merged into the linearization — record-and-analyze in one pass —
// and Finish returns the sink's report. The sink is an *Engine, or any
// EventSink such as a raced client session (race/server.RemoteSession),
// which makes the runtime the recording half of a remote detector. The
// runtime serializes all feeding; nothing else may feed the sink. An engine
// built with WithParallelism takes the analysis off the recorded program's
// sequence points: a commit becomes a batched enqueue for the pipeline's
// workers.
func WithEngineAttached(sink EventSink) RuntimeOption {
	return func(rt *Runtime) { rt.engine = sink }
}

// NewRuntime returns a recorder with the main goroutine registered as
// thread 0.
func NewRuntime(opts ...RuntimeOption) *Runtime {
	rt := &Runtime{
		vars:  make(map[any]uint32),
		locks: make(map[any]uint32),
		vols:  make(map[any]uint32),
		locs:  make(map[uintptr]uint32),
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
		varIDs:  make(map[any]uint32),
		lockIDs: make(map[any]uint32),
		volIDs:  make(map[any]uint32),
		pcLocs:  make(map[uintptr]uint32),
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

func (rt *Runtime) fail(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.mu.Unlock()
}

// thread is the one way an operation reaches t's recording state. It
// returns nil — and the operation records nothing — once the session has
// ended with ErrThreadLimit, or for a Tid this runtime never issued, which
// fails the session.
func (rt *Runtime) thread(t Tid) *threadState {
	threads := *rt.threads.Load()
	if int(t) < len(threads) {
		return threads[t]
	}
	if len(threads) > 0 {
		rt.fail(fmt.Errorf("race: thread %d was never issued by this Runtime", t))
	}
	return nil
}

// intern resolves key to its dense id through the thread's cache, falling
// back to (and populating from) the global table of its kind under
// internMu only on the thread's first sight of key. Ids count from first.
func intern[K comparable](rt *Runtime, cache, global map[K]uint32, key K, first uint32) uint32 {
	if id, ok := cache[key]; ok {
		return id
	}
	rt.internMu.Lock()
	id, ok := global[key]
	if !ok {
		id = first + uint32(len(global))
		global[key] = id
	}
	rt.internMu.Unlock()
	cache[key] = id
	return id
}

// take empties the thread's buffer and returns what it held — the one
// place a buffer is reset.
func (ts *threadState) take() []trace.Event {
	ts.mu.Lock()
	run := ts.buf
	ts.buf = nil
	ts.mu.Unlock()
	return run
}

// hold applies an outermost-filtered acquire (or release) of lock m to the
// thread's held set. emit reports whether the operation is outermost and
// so recorded; ok is false for a release of a lock the thread does not
// hold.
func (ts *threadState) hold(m uint32, acquire bool) (emit, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	i := len(ts.held) - 1
	for i >= 0 && ts.held[i].lock != m {
		i--
	}
	switch {
	case acquire && i < 0:
		ts.held = append(ts.held, heldLock{lock: m, depth: 1})
		return true, true
	case acquire:
		ts.held[i].depth++
		return false, true
	case i < 0:
		return false, false
	case ts.held[i].depth > 1:
		ts.held[i].depth--
		return false, true
	}
	ts.held = append(ts.held[:i], ts.held[i+1:]...)
	return true, true
}

// commit merges pending event runs into the global linearization, feeding
// an attached engine. Runs are appended in argument order. Each run commits
// into the engine as one batch (FeedBatch): a per-thread buffer of accesses
// lands in the analysis pipeline with a single append, so the recorded
// program's sequence points pay one commit per run rather than per event.
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

// sequence is the one sequence point: the thread's buffered accesses, then
// the synchronization event e, commit as one run — after first (a joined
// child's remaining buffer), in the same commit.
func (rt *Runtime) sequence(ts *threadState, e trace.Event, first []trace.Event) {
	rt.commit(first, append(ts.take(), e))
}

// Go registers a new goroutine forked by parent and returns its thread id.
// Call it in the parent before starting the goroutine. Past the Tid space it
// fails the session with ErrThreadLimit.
func (rt *Runtime) Go(parent Tid) Tid {
	ts := rt.thread(parent)
	if ts == nil {
		return parent
	}
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

	rt.sequence(ts, trace.Event{T: parent, Op: trace.OpFork, Targ: uint32(child)}, nil)
	return child
}

// Join records that parent joined (awaited) child. The child goroutine
// must have finished recording; its remaining buffered events merge before
// the join event. A thread joining itself is a recording error.
func (rt *Runtime) Join(parent, child Tid) {
	ps, cs := rt.thread(parent), rt.thread(child)
	if ps == nil || cs == nil {
		return
	}
	if parent == child {
		rt.fail(fmt.Errorf("race: thread %d joins itself", parent))
		return
	}
	rt.sequence(ps, trace.Event{T: parent, Op: trace.OpJoin, Targ: uint32(child)}, cs.take())
}

// Read records a read of the variable identified by key, attributed to
// Read's caller.
func (rt *Runtime) Read(t Tid, key any) { rt.access(t, trace.OpRead, key, 0) }

// Write records a write of the variable identified by key, attributed to
// Write's caller.
func (rt *Runtime) Write(t Tid, key any) { rt.access(t, trace.OpWrite, key, 0) }

// ReadSkip records a read of key attributed to a call site skip frames
// above ReadSkip's caller: skip 0 attributes to the immediate caller
// (like Read), skip 1 to the caller's caller, and so on. Instrumentation
// wrappers (such as race/sync's shadow primitives) use it so recorded
// sites point at user code rather than at the wrapper.
func (rt *Runtime) ReadSkip(t Tid, key any, skip int) { rt.access(t, trace.OpRead, key, skip) }

// WriteSkip records a write of key attributed skip frames above
// WriteSkip's caller (see ReadSkip).
func (rt *Runtime) WriteSkip(t Tid, key any, skip int) { rt.access(t, trace.OpWrite, key, skip) }

// access appends a read or write to the thread's private buffer (no global
// coordination). Its site is the caller's program counter interned as a
// static location, giving the paper's "statically distinct race"
// accounting for free; Locs count from 1. skip counts frames above the
// caller of access's caller (Read, Write, ReadSkip or WriteSkip).
func (rt *Runtime) access(t Tid, op trace.Op, key any, skip int) {
	ts := rt.thread(t)
	if ts == nil {
		return
	}
	e := trace.Event{T: t, Op: op, Targ: intern(rt, ts.varIDs, rt.vars, key, 0)}
	if pc, _, _, ok := runtime.Caller(2 + skip); ok {
		e.Loc = trace.Loc(intern(rt, ts.pcLocs, rt.locs, pc, 1))
	}
	ts.mu.Lock()
	ts.buf = append(ts.buf, e)
	ts.mu.Unlock()
}

// Acquire records a lock acquisition. Reentrant acquisitions are counted
// and filtered: only the outermost acquisition emits an event.
func (rt *Runtime) Acquire(t Tid, lock any) { rt.lockOp(t, trace.OpAcquire, lock) }

// Release records a lock release; only the outermost release emits.
// Releasing a lock the thread does not hold records a runtime error (see
// Err) instead of panicking.
func (rt *Runtime) Release(t Tid, lock any) { rt.lockOp(t, trace.OpRelease, lock) }

func (rt *Runtime) lockOp(t Tid, op trace.Op, lock any) {
	ts := rt.thread(t)
	if ts == nil {
		return
	}
	m := intern(rt, ts.lockIDs, rt.locks, lock, 0)
	emit, ok := ts.hold(m, op == trace.OpAcquire)
	if !ok {
		rt.fail(fmt.Errorf("race: thread %d releases lock it does not hold", t))
		return
	}
	if emit {
		rt.sequence(ts, trace.Event{T: t, Op: op, Targ: m}, nil)
	}
}

// VolatileRead records an atomic/volatile load of key.
func (rt *Runtime) VolatileRead(t Tid, key any) { rt.volatile(t, trace.OpVolatileRead, key) }

// VolatileWrite records an atomic/volatile store of key.
func (rt *Runtime) VolatileWrite(t Tid, key any) { rt.volatile(t, trace.OpVolatileWrite, key) }

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
	rt.volatile(t, trace.OpVolatileRead, volSlot{key, slot})
}

// VolatileWriteKeyed records an atomic/volatile store of slot `slot` of
// the multi-slot volatile identified by key (see VolatileReadKeyed).
func (rt *Runtime) VolatileWriteKeyed(t Tid, key any, slot uint32) {
	rt.volatile(t, trace.OpVolatileWrite, volSlot{key, slot})
}

func (rt *Runtime) volatile(t Tid, op trace.Op, key any) {
	if ts := rt.thread(t); ts != nil {
		rt.sequence(ts, trace.Event{T: t, Op: op, Targ: intern(rt, ts.volIDs, rt.vols, key, 0)}, nil)
	}
}

// closeOut is the one end-of-recording step: every thread's remaining
// buffer merges into the linearization, in thread-id order, and the
// releases that close every open critical section are returned — threads
// in ascending id order, each thread's sections in LIFO order (reverse
// acquisition order), so nested sections close deterministically
// innermost-first. forget drops the held sets, for a caller that commits
// the releases.
func (rt *Runtime) closeOut(forget bool) (closing []trace.Event) {
	threads := *rt.threads.Load()
	for t, ts := range threads {
		rt.commit(ts.take())
		ts.mu.Lock()
		for i := len(ts.held) - 1; i >= 0; i-- {
			closing = append(closing, trace.Event{T: Tid(t), Op: trace.OpRelease, Targ: ts.held[i].lock})
		}
		if forget {
			ts.held = nil
		}
		ts.mu.Unlock()
	}
	return closing
}

// Snapshot returns the recorded trace. The recorder can keep recording;
// the snapshot is independent. Threads must be quiescent (between recorded
// operations) for the snapshot to be a consistent cut. Open critical
// sections at snapshot time are legal executions, but the snapshot closes
// them for the trace checker with deterministic LIFO releases (per thread
// in ascending id order, each thread's sections innermost-first).
func (rt *Runtime) Snapshot() (*Trace, error) {
	closing := rt.closeOut(false)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err != nil {
		return nil, rt.err
	}
	tr := &trace.Trace{Events: append(append([]trace.Event(nil), rt.stream...), closing...)}
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
	closing := rt.closeOut(true) // a later Snapshot must not close them twice
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
