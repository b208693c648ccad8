package ccs

import (
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
)

// syncFor builds rel's state with threads 0..threads-1 made to exist, so
// that tests may index P directly.
func syncFor(rel analysis.Relation, threads int) *analysis.SyncState {
	s := analysis.NewSyncState(rel)
	s.Ensure(trace.Tid(threads - 1))
	return s
}

func TestRuleBLateThreadSeesHistory(t *testing.T) {
	// A thread that first appears after critical sections already completed
	// must still observe them at its own release — its consumed-prefix
	// cursors start at zero over the append-only logs — exactly as if the
	// history had been enqueued for every thread up front. This is what
	// keeps a thread discovered mid-stream equivalent to one known from the
	// start.
	s := syncFor(analysis.DC, 1) // ONE thread so far
	rb := NewRuleB(analysis.DC, false)

	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rb.Release(0, 0, s, 1, nil)
	s.PostRelease(0, 0)

	// Thread 1 appears only now, after T0's critical section is history.
	s.Ensure(1)
	rb.Acquire(1, 0, s.P[1])
	s.PostAcquire(1, 0)
	s.JoinP(1, s.P[0])
	rb.Release(1, 0, s, 5, nil)
	if s.P[1].Get(0) < 2 {
		t.Errorf("late-forked thread missed historical release time: %v", s.P[1])
	}
}

func TestRuleBOrdersOrderedCriticalSections(t *testing.T) {
	// T0: acq(m) rel(m); T1: acq(m) [DC-ordered to T0's CS via a manual
	// join] rel(m) — rule (b) must add T0's release time to T1.
	s := syncFor(analysis.DC, 2)
	rb := NewRuleB(analysis.DC, false)

	// T0's critical section.
	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rb.Release(0, 0, s, 1, nil)
	s.PostRelease(0, 0)

	// T1 acquires; simulate a rule (a)-style join making T0's acquire
	// ordered before T1's upcoming release.
	rb.Acquire(1, 0, s.P[1])
	s.PostAcquire(1, 0)
	s.JoinP(1, s.P[0]) // T1 now knows everything T0 did
	before := s.P[1].Copy()
	rb.Release(1, 0, s, 5, nil)
	if !before.Leq(s.P[1]) {
		t.Fatal("release must only grow the clock")
	}
	// T0's release time (T0 local clock after two ticks = 3) must be in.
	if s.P[1].Get(0) < 2 {
		t.Errorf("rule (b) did not deliver T0's release time: %v", s.P[1])
	}
}

func TestRuleBSkipsUnorderedCriticalSections(t *testing.T) {
	s := syncFor(analysis.DC, 2)
	rb := NewRuleB(analysis.DC, false)
	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rb.Release(0, 0, s, 1, nil)
	s.PostRelease(0, 0)

	rb.Acquire(1, 0, s.P[1])
	s.PostAcquire(1, 0)
	// No join: T0's acquire is NOT ordered before T1's release.
	rb.Release(1, 0, s, 5, nil)
	if s.P[1].Get(0) != 0 {
		t.Errorf("rule (b) fired for unordered critical sections: %v", s.P[1])
	}
}

func TestRuleBEpochQueues(t *testing.T) {
	s := syncFor(analysis.DC, 2)
	rb := NewRuleB(analysis.DC, true) // SmartTrack epoch queues
	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rb.Release(0, 0, s, 1, nil)
	s.PostRelease(0, 0)

	rb.Acquire(1, 0, s.P[1])
	s.PostAcquire(1, 0)
	s.JoinP(1, s.P[0])
	rb.Release(1, 0, s, 5, nil)
	if s.P[1].Get(0) < 2 {
		t.Errorf("epoch-queue rule (b) did not fire: %v", s.P[1])
	}
}

func TestRuleBFIFOPairing(t *testing.T) {
	// Two critical sections by T0; only after T1 is ordered past the first
	// one does its release time arrive, and the second stays queued.
	s := syncFor(analysis.DC, 2)
	rb := NewRuleB(analysis.DC, false)

	// CS 1.
	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rel1Time := s.P[0].Copy()
	rb.Release(0, 0, s, 1, nil)
	s.PostRelease(0, 0)
	// CS 2.
	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rb.Release(0, 0, s, 3, nil)
	s.PostRelease(0, 0)

	// T1 ordered after CS 1's acquire only.
	rb.Acquire(1, 0, s.P[1])
	s.PostAcquire(1, 0)
	s.P[1].Set(0, rel1Time.Get(0)) // knows T0 up to just past acquire 1
	rb.Release(1, 0, s, 7, nil)
	got := s.P[1].Get(0)
	if got < 2 {
		t.Errorf("first CS's release time missing: clock(T0)=%d", got)
	}
	if got >= 5 {
		t.Errorf("second CS's release time must stay queued: clock(T0)=%d", got)
	}
}

func TestRuleBGraphEdges(t *testing.T) {
	s := syncFor(analysis.DC, 2)
	rb := NewRuleB(analysis.DC, false)
	var edges edgeList

	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rb.Release(0, 0, s, 1, &edges)
	s.PostRelease(0, 0)
	rb.Acquire(1, 0, s.P[1])
	s.PostAcquire(1, 0)
	s.JoinP(1, s.P[0])
	rb.Release(1, 0, s, 5, &edges)
	if len(edges) != 1 || edges[0] != [4]int32{1, 5, 0, 1} {
		t.Errorf("edges = %v, want [[1 5 0 1]]: T0's release 1 before T1's release 5", edges)
	}
}

func TestLockTablesReadSeesWriters(t *testing.T) {
	s := syncFor(analysis.DC, 2)
	lt := NewLockTables(nil)

	// T0 writes x in a CS on m.
	s.PostAcquire(0, 0)
	lt.WriteJoin(0, 0, 3, s, 1, nil)
	relTime := s.P[0].Copy()
	lt.Release(0, 0, relTime, 0, 2)
	s.PostRelease(0, 0)

	// T1 reads x in a CS on m: rule (a) must join T0's release time.
	s.PostAcquire(1, 0)
	lt.ReadJoin(1, 0, 3, s, 4, nil)
	if s.P[1].Get(0) != relTime.Get(0) {
		t.Errorf("rule (a) join missing: %v", s.P[1])
	}
}

func TestLockTablesReadersOnlyConflictWithWrites(t *testing.T) {
	s := syncFor(analysis.DC, 2)
	lt := NewLockTables(nil)
	s.PostAcquire(0, 0)
	lt.ReadJoin(0, 0, 3, s, 1, nil) // read-only CS
	lt.Release(0, 0, s.P[0], 0, 2)
	s.PostRelease(0, 0)

	s.PostAcquire(1, 0)
	lt.ReadJoin(1, 0, 3, s, 4, nil) // read-read: no conflict
	if s.P[1].Get(0) != 0 {
		t.Errorf("read-read critical sections must not be ordered: %v", s.P[1])
	}
	lt.WriteJoin(1, 0, 3, s, 5, nil) // write-read: conflict
	if s.P[1].Get(0) == 0 {
		t.Error("write must see prior reading critical section")
	}
}

// TestLockTablesWriteOnlySectionOrdersLaterAccesses pins why FTO needs no
// "writes are also reads" mark: a critical section that only wrote x folds
// into Lw alone, and both a later read and a later write in a critical
// section on the same lock still join its release time.
func TestLockTablesWriteOnlySectionOrdersLaterAccesses(t *testing.T) {
	for _, laterWrite := range []bool{false, true} {
		s := syncFor(analysis.DC, 2)
		lt := NewLockTables(nil)
		s.PostAcquire(0, 0)
		lt.WriteJoin(0, 0, 3, s, 1, nil)
		relTime := s.P[0].Copy()
		lt.Release(0, 0, relTime, 0, 2)
		s.PostRelease(0, 0)
		if cl := lt.tab(0).cells.At(3); cl.lr.set() || !cl.lw.set() {
			t.Fatalf("write-only section must fold into Lw alone: lr=%+v lw=%+v", cl.lr, cl.lw)
		}
		s.PostAcquire(1, 0)
		if laterWrite {
			lt.WriteJoin(1, 0, 3, s, 4, nil)
		} else {
			lt.ReadJoin(1, 0, 3, s, 4, nil)
		}
		if s.P[1].Get(0) != relTime.Get(0) {
			t.Errorf("later write=%v: rule (a) join missing: %v", laterWrite, s.P[1])
		}
	}
}

func TestLockTablesClearsAccessSets(t *testing.T) {
	s := syncFor(analysis.DC, 1)
	lt := NewLockTables(nil)
	s.PostAcquire(0, 0)
	lt.ReadJoin(0, 0, 1, s, 0, nil)
	lt.WriteJoin(0, 0, 2, s, 1, nil)
	lt.Release(0, 0, s.P[0], 0, 2)
	tb := lt.tab(0)
	if len(tb.touched) != 0 || tb.cells.At(1).mark != 0 || tb.cells.At(2).mark != 0 {
		t.Error("release must clear the ongoing access sets")
	}
	if !tb.cells.At(1).lr.set() || !tb.cells.At(2).lw.set() {
		t.Error("release must fold access sets into Lr/Lw")
	}
}

func TestWeights(t *testing.T) {
	s := syncFor(analysis.DC, 3)
	rb := NewRuleB(analysis.DC, false)
	lt := NewLockTables(nil)
	if rb.Weight() != 0 || lt.Weight() != 0 {
		t.Errorf("fresh state must weigh nothing: rule (b) weighs %d words, rule (a) %d", rb.Weight(), lt.Weight())
	}
	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	lt.WriteJoin(0, 0, 1, s, 0, nil)
	lt.Release(0, 0, s.P[0], 0, 1)
	rb.Release(0, 0, s, 1, nil)
	if rb.Weight() <= 0 || lt.Weight() <= 0 {
		t.Error("populated state must have weight")
	}
}

func TestWCPForcesEpochQueues(t *testing.T) {
	rb := NewRuleB(analysis.WCP, false)
	if !rb.epochAcq {
		t.Error("WCP must use epoch acquire queues (component ordering test)")
	}
}

func TestRuleBWCPEnqueuesHBTime(t *testing.T) {
	s := syncFor(analysis.WCP, 2)
	rb := NewRuleB(analysis.WCP, true)
	rb.Acquire(0, 0, s.P[0])
	s.PostAcquire(0, 0)
	rb.Release(0, 0, s, 1, nil)
	s.PostRelease(0, 0)
	// The logged release entry must be the HB clock (its own component is
	// the local clock, which P strips on export).
	lg := &rb.locks.At(0).byOwner[0]
	if lg.n != 1 || rb.entry(lg, 0).rel == 0 {
		t.Fatalf("release log = %v, want one released section", lg)
	}
	c := rb.At(rb.entry(lg, 0).rel, 0)
	if c.Get(0) != s.H[0].Get(vc.Tid(0))-1 && c.Get(0) == 0 {
		t.Errorf("WCP rule (b) must log HB release times, got %v", c.Copy())
	}
}

// TestWCPJoinsWhatTheEpochTestWouldSkip pins where fact 3 of the package
// comment stops: under WCP, P_t(u) ≥ c for u's release r at local time c
// does not mean P_t holds H_r. w releases m′ and u acquires it, so H_u gets
// w's time and P_u does not; u writes x under m, releases m (r) and forks t,
// which gives P_t u's time past c; t acquires m and reads x. Rule (a) must
// join H_r, bringing w's time, which the epoch test would have skipped.
func TestWCPJoinsWhatTheEpochTestWouldSkip(t *testing.T) {
	b := trace.NewBuilder()
	b.Acq("w", "m'").Rel("w", "m'").Acq("u", "m'").Acq("u", "m").Write("u", "x").Rel("u", "m")
	b.Fork("u", "t").Acq("t", "m").Read("t", "x")
	tr := trace.MustCheck(b.Build())
	const w, u, tt = 0, 1, 2
	sub := NewSubstrate(analysis.WCP, false)
	var hr *vc.VC
	for i, e := range tr.Events {
		if i == len(tr.Events)-1 { // t's read: the epoch test's premise holds, its conclusion does not
			if sub.P[tt].Get(u) < hr.Get(u) || sub.P[tt].Get(w) >= hr.Get(w) {
				t.Fatalf("the trace does not set the trap: P_t = %v, H_r = %v", sub.P[tt], hr)
			}
		}
		if e.Op == trace.OpRelease && e.T == u {
			hr = sub.H[u].Copy()
		}
		idx := sub.Begin(e.T)
		if e.Op.IsAccess() {
			sub.RuleA(e.T, e.Targ, e.Op == trace.OpWrite, idx, false)
		} else {
			sub.Sync(e, idx)
		}
	}
	if got, want := sub.P[tt].Get(w), hr.Get(w); got < want {
		t.Errorf("after t's read P_t(w) = %d: rule (a) skipped H_r, whose w component is %d", got, want)
	}
}

// TestSubstrateShape: HB needs neither CCS structure, WDC omits rule (b),
// and only a graph-building substrate carries a hook.
func TestSubstrateShape(t *testing.T) {
	for _, tc := range []struct {
		rel    analysis.Relation
		lt, rb bool
	}{
		{analysis.HB, false, false}, {analysis.WCP, true, true},
		{analysis.DC, true, true}, {analysis.WDC, true, false},
	} {
		b := NewSubstrate(tc.rel, false)
		if (b.lt != nil) != tc.lt || (b.rb != nil) != tc.rb {
			t.Errorf("%v: rule (a) state %v, rule (b) state %v; want %v, %v", tc.rel, b.lt != nil, b.rb != nil, tc.lt, tc.rb)
		}
		if b.Graph() != nil || b.Hook() != nil {
			t.Errorf("%v: graph built without being asked for", tc.rel)
		}
	}
	if b := NewSubstrate(analysis.WDC, true); b.Graph() == nil || b.Hook() == nil {
		t.Error("graph-building substrate has no graph")
	}
}

// TestRuleStateFitsBudget pins the per-item footprints the package comment
// counts on: a rule (a) cell, which names or views its release times
// instead of owning them, and a rule (b) log entry, whose epoch acquire
// keeps only the owner's clock.
func TestRuleStateFitsBudget(t *testing.T) {
	if sz := unsafe.Sizeof(aCell{}); sz > 40 || sz != 8*aCellWords {
		t.Errorf("aCell is %d bytes, budget 40 (Weight counts %d words)", sz, aCellWords)
	}
	if sz := unsafe.Sizeof(lockTab{}); sz != 8*lockTabWords {
		t.Errorf("lockTab is %d bytes; Weight counts %d words", sz, lockTabWords)
	}
	if sz := unsafe.Sizeof(csEntry{}); sz > 12 {
		t.Errorf("csEntry is %d bytes, budget 12", sz)
	}
}
