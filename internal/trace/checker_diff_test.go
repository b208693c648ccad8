package trace_test

// The streaming Checker's dense-table implementation is tested against the
// map-based implementation it replaced, kept here as the reference model:
// one map per rule, no tables to size, nothing to grow — slow and obviously
// right. The two must agree on every stream: same verdict, and on rejection
// the same CheckError index, event and message.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// refChecker is the reference model: the map-based Checker the dense
// tables replaced, plus the rule that a fork or join target must fit a
// thread id.
type refChecker struct {
	n          int
	lockHolder map[uint32]int32   // lock -> holding thread; absent = free
	running    map[trace.Tid]bool // threads that have executed an event
	forked     map[trace.Tid]bool // threads created by a fork event
	ended      map[trace.Tid]bool // threads that have been joined
}

func newRefChecker() *refChecker {
	return &refChecker{
		lockHolder: make(map[uint32]int32),
		running:    make(map[trace.Tid]bool),
		forked:     make(map[trace.Tid]bool),
		ended:      make(map[trace.Tid]bool),
	}
}

func (c *refChecker) Step(e trace.Event) error {
	i := c.n
	fail := func(f string, args ...any) error {
		return &trace.CheckError{Index: i, Event: e, Msg: fmt.Sprintf(f, args...)}
	}
	if c.ended[e.T] {
		return fail("thread ran after being joined")
	}
	switch e.Op {
	case trace.OpRead, trace.OpWrite, trace.OpVolatileRead, trace.OpVolatileWrite, trace.OpClassInit, trace.OpClassAccess:
	case trace.OpAcquire:
		if h, held := c.lockHolder[e.Targ]; held {
			if h == int32(e.T) {
				return fail("reentrant acquire (lock already held by this thread)")
			}
			return fail("lock already held by T%d", h)
		}
		c.lockHolder[e.Targ] = int32(e.T)
	case trace.OpRelease:
		if h, held := c.lockHolder[e.Targ]; !held || h != int32(e.T) {
			return fail("release of lock not held by this thread")
		}
		delete(c.lockHolder, e.Targ)
	case trace.OpFork:
		if e.Targ > math.MaxUint16 {
			return fail("forked thread id out of range")
		}
		ct := trace.Tid(e.Targ)
		if ct == e.T {
			return fail("thread forks itself")
		}
		if c.forked[ct] {
			return fail("thread T%d forked twice", ct)
		}
		if c.running[ct] || c.ended[ct] {
			return fail("fork of thread T%d that already ran", ct)
		}
		c.forked[ct] = true
	case trace.OpJoin:
		if e.Targ > math.MaxUint16 {
			return fail("joined thread id out of range")
		}
		ct := trace.Tid(e.Targ)
		if ct == e.T {
			return fail("thread joins itself")
		}
		if c.ended[ct] {
			return fail("thread T%d joined twice", ct)
		}
		c.ended[ct] = true
	default:
		return fail("unknown op")
	}
	c.running[e.T] = true
	c.n++
	return nil
}

// diffStream steps both checkers through evs until one rejects, and fails
// the test on any disagreement; then it holds Checker.Run, fed evs in runs
// of random length drawn from runs, to the Step loop (diffRun). It returns
// the index of the rejected event, or -1 if the stream was accepted.
func diffStream(t *testing.T, name string, runs *rand.Rand, evs []trace.Event) int {
	t.Helper()
	got, want := trace.NewChecker(), newRefChecker()
	for i, e := range evs {
		gerr, werr := got.Step(e), want.Step(e)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: event %d (%v): checker says %v, reference says %v", name, i, e, gerr, werr)
		}
		if gerr == nil {
			continue
		}
		var g, w *trace.CheckError
		if !errors.As(gerr, &g) || !errors.As(werr, &w) {
			t.Fatalf("%s: event %d: errors are not *CheckError: %T, %T", name, i, gerr, werr)
		}
		if *g != *w {
			t.Fatalf("%s: event %d: checker rejects with %+v, reference with %+v", name, i, *g, *w)
		}
		if g.Index != i {
			t.Fatalf("%s: CheckError.Index = %d at stream index %d", name, g.Index, i)
		}
		diffRun(t, name, runs, evs, i, g)
		return i
	}
	diffRun(t, name, runs, evs, len(evs), nil)
	return -1
}

// diffRun feeds evs to a fresh checker through Run, in runs of random length
// — one event, a few, a window, most of the stream — and fails the test
// unless it accepts exactly the events the Step loop accepted and then
// rejects with the same *CheckError (nil: the stream was accepted).
func diffRun(t *testing.T, name string, runs *rand.Rand, evs []trace.Event, accepted int, want *trace.CheckError) {
	t.Helper()
	ck := trace.NewChecker()
	got := 0
	var err error
	for rest := evs; len(rest) > 0 && err == nil; {
		k := min(len(rest), 1+runs.Intn([]int{1, 8, 1024, 1 << 20}[runs.Intn(4)]))
		var n int
		n, err = ck.Run(rest[:k])
		if err == nil && n != k {
			t.Fatalf("%s: Run accepted %d of a %d-event run and returned no error", name, n, k)
		}
		got += n
		rest = rest[k:]
	}
	if got != accepted {
		t.Fatalf("%s: Run accepted %d events, the Step loop %d", name, got, accepted)
	}
	var g *trace.CheckError
	if (err == nil) != (want == nil) || err != nil && (!errors.As(err, &g) || *g != *want) {
		t.Fatalf("%s: Run rejects with %v, the Step loop with %v", name, err, want)
	}
}

// wellFormedStreams is generator output covering every op: DaCapo-shaped
// programs, the channel lowering (volatiles, fork/join), and the random
// scheduler with and without a fork/join phase.
func wellFormedStreams(seed int64) map[string][]trace.Event {
	out := map[string][]trace.Event{
		"channels": workload.Channels(workload.ChannelsConfig{Seed: seed, Threads: 5, Events: 3000}).Events,
		"random": workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 6, Vars: 8, Locks: 5, Volatiles: 3, Events: 3000}).Events,
		"random-forkjoin": workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 9, Vars: 8, Locks: 5, Volatiles: 3, Events: 3000, ForkJoin: true}).Events,
	}
	for _, prog := range []string{"avrora", "xalan", "h2"} {
		p, _ := workload.ProgramByName(prog)
		out[prog] = p.Generate(400000, seed).Events
	}
	return out
}

// mutations each damage a well-formed stream at (or after) position i in
// one way the checker has a rule for, or in a way that stresses the tables.
// needs lists the ops a stream must contain for the mutation to apply;
// always marks mutations no stream survives (the others can be harmless —
// a release dropped from a lock's last critical section breaks no rule —
// and must only bite somewhere).
var mutations = []struct {
	name   string
	needs  []trace.Op
	always bool
	mutate func(r *rand.Rand, evs []trace.Event, i int) []trace.Event
}{
	{"dropped release", []trace.Op{trace.OpRelease}, false, func(_ *rand.Rand, evs []trace.Event, i int) []trace.Event {
		for ; i < len(evs); i++ {
			if evs[i].Op == trace.OpRelease {
				return append(evs[:i:i], evs[i+1:]...)
			}
		}
		return evs
	}},
	{"dropped acquire", []trace.Op{trace.OpAcquire}, false, func(_ *rand.Rand, evs []trace.Event, i int) []trace.Event {
		for ; i < len(evs); i++ {
			if evs[i].Op == trace.OpAcquire {
				return append(evs[:i:i], evs[i+1:]...)
			}
		}
		return evs
	}},
	{"duplicated sync event", []trace.Op{trace.OpAcquire}, false, func(_ *rand.Rand, evs []trace.Event, i int) []trace.Event {
		// Reentrant acquire, double release, double fork or double join.
		for ; i < len(evs); i++ {
			if op := evs[i].Op; op >= trace.OpAcquire && op <= trace.OpJoin {
				return append(append(evs[:i:i], evs[i]), evs[i:]...)
			}
		}
		return evs
	}},
	{"event after join", []trace.Op{trace.OpJoin}, false, func(_ *rand.Rand, evs []trace.Event, i int) []trace.Event {
		for ; i < len(evs); i++ {
			if evs[i].Op == trace.OpJoin {
				late := trace.Event{T: trace.Tid(evs[i].Targ), Op: trace.OpRead, Targ: 0}
				return append(append(evs[:i+1:i+1], late), evs[i+1:]...)
			}
		}
		return evs
	}},
	{"self fork or join", nil, true, func(r *rand.Rand, evs []trace.Event, i int) []trace.Event {
		op := trace.OpFork
		if r.Intn(2) == 0 {
			op = trace.OpJoin
		}
		self := trace.Event{T: evs[i].T, Op: op, Targ: uint32(evs[i].T)}
		return append(append(evs[:i:i], self), evs[i:]...)
	}},
	{"self-join as a thread's last event", nil, true, func(_ *rand.Rand, evs []trace.Event, i int) []trace.Event {
		// Nothing of the thread runs after its join, so no rule but "joins
		// itself" can bite — unless another thread joins it later.
		self, last := evs[i].T, i
		for j := i; j < len(evs); j++ {
			if evs[j].T == self {
				last = j
			}
		}
		join := trace.Event{T: self, Op: trace.OpJoin, Targ: uint32(self)}
		return append(append(evs[:last+1:last+1], join), evs[last+1:]...)
	}},
	{"fork of a running thread", nil, false, func(_ *rand.Rand, evs []trace.Event, i int) []trace.Event {
		other := evs[0].T // has certainly run by position i ≥ 1
		if other == evs[i].T {
			return evs
		}
		fork := trace.Event{T: evs[i].T, Op: trace.OpFork, Targ: uint32(other)}
		return append(append(evs[:i:i], fork), evs[i:]...)
	}},
	{"acquire by another thread", []trace.Op{trace.OpAcquire}, false, func(_ *rand.Rand, evs []trace.Event, i int) []trace.Event {
		for ; i < len(evs); i++ {
			if evs[i].Op == trace.OpAcquire {
				steal := evs[i]
				steal.T++
				return append(append(evs[:i+1:i+1], steal), evs[i+1:]...)
			}
		}
		return evs
	}},
	{"fork/join target wider than a Tid", nil, true, func(r *rand.Rand, evs []trace.Event, i int) []trace.Event {
		// Truncated to a Tid, the target would name a real thread.
		op := trace.OpFork
		if r.Intn(2) == 0 {
			op = trace.OpJoin
		}
		wide := trace.Event{T: evs[i].T, Op: op, Targ: 1<<16 + uint32(evs[i].T) + uint32(r.Intn(1<<15))<<16}
		return append(append(evs[:i:i], wide), evs[i:]...)
	}},
	{"unknown op", nil, true, func(r *rand.Rand, evs []trace.Event, i int) []trace.Event {
		bad := evs[i]
		bad.Op = trace.Op(10 + r.Intn(246))
		return append(append(evs[:i:i], bad), evs[i:]...)
	}},
	{"ids that force table growth", nil, true, func(r *rand.Rand, evs []trace.Event, i int) []trace.Event {
		// A far thread takes and gives back a far lock, is joined, and —
		// sometimes — runs again: every table grows mid-stream, past one
		// doubling, and the grown slots are then consulted.
		far, lock := trace.Tid(300+r.Intn(60000)), uint32(1000+r.Intn(100000))
		ins := []trace.Event{
			{T: far, Op: trace.OpAcquire, Targ: lock},
			{T: evs[i].T, Op: trace.OpRelease, Targ: lock + 1}, // beyond the table: not held
		}
		if r.Intn(2) == 0 {
			ins = []trace.Event{
				{T: far, Op: trace.OpAcquire, Targ: lock},
				{T: far, Op: trace.OpRelease, Targ: lock},
				{T: evs[i].T, Op: trace.OpJoin, Targ: uint32(far)},
				{T: evs[i].T, Op: trace.OpFork, Targ: uint32(far) + 1},
				{T: far + 1, Op: trace.OpWrite, Targ: 0},
				{T: far, Op: trace.OpWrite, Targ: 0}, // after its join
			}
		}
		return append(append(evs[:i:i], ins...), evs[i:]...)
	}},
}

// TestCheckerMatchesReferenceModel is the seeded differential test: over
// well-formed generator output both checkers accept; over each mutation of
// it, applied at many positions, they reject at the same index with the same
// message — or both accept, where the mutation happened to be harmless. Run,
// in random run lengths, accepts and rejects every stream as Step does.
func TestCheckerMatchesReferenceModel(t *testing.T) {
	const trials = 25
	tried, rejected := map[string]int{}, map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		runs := rand.New(rand.NewSource(-seed))
		for name, evs := range wellFormedStreams(seed) {
			name = fmt.Sprintf("%s/seed%d", name, seed)
			if i := diffStream(t, name, runs, evs); i >= 0 {
				t.Fatalf("%s: generator output rejected at event %d", name, i)
			}
			r := rand.New(rand.NewSource(seed))
			for _, m := range mutations {
				if !hasOps(evs, m.needs) {
					continue
				}
				for trial := 0; trial < trials; trial++ {
					tried[m.name]++
					at := 1 + r.Intn(len(evs)-1)
					if diffStream(t, name+"/"+m.name, runs, m.mutate(r, evs, at)) >= 0 {
						rejected[m.name]++
					}
				}
			}
		}
	}
	for _, m := range mutations {
		if rejected[m.name] == 0 || m.always && rejected[m.name] < tried[m.name] {
			t.Errorf("%s: only %d of %d mutated streams rejected", m.name, rejected[m.name], tried[m.name])
		}
		t.Logf("%-34s rejected %3d of %3d", m.name, rejected[m.name], tried[m.name])
	}
}

// TestCheckAgreesWithChecker: the batch Check and the streaming Checker
// enforce one rule set. Over the corpus and every mutation of it, Check
// rejects a stream with exactly the *CheckError the Checker's Step rejects
// it with, and accepts it exactly when Step accepts every event of it.
func TestCheckAgreesWithChecker(t *testing.T) {
	const trials = 25
	for seed := int64(1); seed <= 4; seed++ {
		for name, evs := range wellFormedStreams(seed) {
			name = fmt.Sprintf("%s/seed%d", name, seed)
			agree(t, name, evs)
			r := rand.New(rand.NewSource(seed))
			for _, m := range mutations {
				if !hasOps(evs, m.needs) {
					continue
				}
				for trial := 0; trial < trials; trial++ {
					at := 1 + r.Intn(len(evs)-1)
					agree(t, name+"/"+m.name, m.mutate(r, evs, at))
				}
			}
		}
	}
}

// agree fails the test if Check and the Checker disagree on evs.
func agree(t *testing.T, name string, evs []trace.Event) {
	t.Helper()
	var streamErr error
	ck := trace.NewChecker()
	for _, e := range evs {
		if streamErr = ck.Step(e); streamErr != nil {
			break
		}
	}
	batchErr := trace.Check(&trace.Trace{Events: evs})
	var s, b *trace.CheckError
	if (streamErr == nil) != (batchErr == nil) ||
		streamErr != nil && (!errors.As(streamErr, &s) || !errors.As(batchErr, &b) || *s != *b) {
		t.Fatalf("%s: Checker says %v, Check says %v", name, streamErr, batchErr)
	}
}

// fuzzTrace decodes a trace from fuzz bytes: events of three bytes —
// thread, flags, target — where
// flag bits 0–3 are the op (10–15 unknown), bit 4 widens the thread to two
// bytes and bit 5 the target to four, so ids reach 2¹⁶ and 2³².
func fuzzTrace(data []byte) *trace.Trace {
	next := func(n int) uint32 {
		var v uint32
		for k := 0; k < n && len(data) > 0; k++ {
			v |= uint32(data[0]) << (8 * k)
			data = data[1:]
		}
		return v
	}
	tr := &trace.Trace{}
	for len(data) > 0 {
		t := next(1)
		flags := next(1)
		if flags&16 != 0 {
			t |= next(1) << 8
		}
		n := 1
		if flags&32 != 0 {
			n = 4
		}
		tr.Events = append(tr.Events, trace.Event{T: trace.Tid(t), Op: trace.Op(flags & 15), Targ: next(n)})
	}
	return tr
}

// FuzzCheck holds Check to refChecker: the same verdict, and on rejection
// the same *CheckError. Any id is in range, and the Checker's tables cost a
// page per id touched, not a table reaching out to the id: a call allocating
// more than the thread table's growth (one byte per thread id, made at twice
// the length asked for, so under 256 KiB in all) plus 512 bytes an event
// means a far id cost more than its page.
func FuzzCheck(f *testing.F) {
	ev := func(t, flags byte, targ ...byte) []byte { return append([]byte{t, flags}, targ...) }
	for _, evs := range [][][]byte{
		{ev(0, 0x4, 1), ev(1, 0x2, 0), ev(1, 0x1, 1), ev(1, 0x3, 0), ev(0, 0x5, 1), ev(0, 0x0, 1)}, // well formed
		{ev(0, 0x22, 0, 0, 0x40, 0), ev(0, 0x3, 1)},                                                // lock 1<<22, then a release of an unheld lock
		{ev(0, 0x0, 0), ev(0, 0x24, 1, 0, 1, 0)},                                                   // fork of 65537, truncated T1
		{ev(2, 0x1, 0), ev(0, 0x4, 2), ev(0, 0x5, 2)},                                              // T2 runs before its fork
		{ev(0, 0x2, 1), ev(7, 0x1, 0)},                                                             // a thread no earlier event named
		{ev(0, 0x2, 0), ev(0, 0x2, 0)},                                                             // reentrant acquire
		{ev(1, 0xc, 0)},                                                                            // unknown op
	} {
		f.Add(bytes.Join(evs, nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		var want error
		ref := newRefChecker()
		for _, e := range tr.Events {
			if want = ref.Step(e); want != nil {
				break
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := trace.Check(tr)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<16+512*len(tr.Events)); alloc > bound {
			t.Errorf("Check allocated %d bytes over %d events (bound %d): a far id cost more than its page", alloc, len(tr.Events), bound)
		}
		var g, w *trace.CheckError
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("Check = %v, want %v", got, want)
		case got == nil:
		case !errors.As(got, &g) || !errors.As(want, &w):
			t.Fatalf("Check = %v (%T), want a *CheckError", got, got)
		case *g != *w:
			t.Fatalf("Check = %v, want %v", got, want)
		}
	})
}

func hasOps(evs []trace.Event, ops []trace.Op) bool {
	seen := map[trace.Op]bool{}
	for _, e := range evs {
		seen[e.Op] = true
	}
	for _, op := range ops {
		if !seen[op] {
			return false
		}
	}
	return true
}

// TestCheckerStepAllocs pins the steady state at zero allocations per Step
// and per Run: once the tables cover the stream's ids, accepting an event
// touches no heap. (Growth and rejection allocate; neither is steady state.)
func TestCheckerStepAllocs(t *testing.T) {
	// Without its forks and joins a generated stream is still well formed
	// (every thread is a root thread) and, as it ends with no lock held,
	// can be stepped through one checker again and again.
	var steady []trace.Event
	for _, e := range wellFormedStreams(1)["avrora"] {
		if e.Op != trace.OpFork && e.Op != trace.OpJoin {
			steady = append(steady, e)
		}
	}
	ck := trace.NewChecker()
	step := func() {
		for _, e := range steady {
			if err := ck.Step(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	step() // the tables now cover every id
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("steady-state Step allocates: %v allocs per %d events", n, len(steady))
	}
	run := func() {
		if _, err := ck.Run(steady); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("steady-state Run allocates: %v allocs per %d events", n, len(steady))
	}
}
