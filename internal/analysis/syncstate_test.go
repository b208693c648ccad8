package analysis

import (
	"cmp"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
)

// newState builds rel's state with threads 0..threads-1 made to exist, so
// that tests may index P and H directly.
func newState(rel Relation, threads int) *SyncState {
	s := NewSyncState(rel)
	s.Ensure(trace.Tid(threads - 1))
	return s
}

func TestInitialClocks(t *testing.T) {
	s := newState(DC, 3)
	for i := 0; i < 3; i++ {
		if s.P[i].Get(vc.Tid(i)) != 1 {
			t.Errorf("thread %d initial clock = %d, want 1", i, s.P[i].Get(vc.Tid(i)))
		}
	}
	if s.H != nil {
		t.Error("DC must not maintain an HB clock")
	}
	w := newState(WCP, 2)
	if w.H == nil {
		t.Error("WCP must maintain an HB clock")
	}
}

func TestTickAdvancesLocalClock(t *testing.T) {
	s := newState(WCP, 2)
	s.Tick(0)
	if s.P[0].Get(0) != 2 || s.H[0].Get(0) != 2 {
		t.Error("tick must advance both clocks' own component")
	}
	if e := s.P[0].Epoch(0); e != vc.E(0, 2) {
		t.Errorf("Epoch = %v", e)
	}
}

func TestHeldStack(t *testing.T) {
	s := newState(DC, 1)
	s.PostAcquire(0, 2)
	s.PostAcquire(0, 0)
	if got := s.Held(0); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("Held = %v", got)
	}
	s.PostRelease(0, 2) // out-of-order release is tolerated
	if got := s.Held(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Held after release = %v", got)
	}
}

func TestHBLockEdges(t *testing.T) {
	s := newState(HB, 2)
	s.PostAcquire(0, 0)
	c0 := s.P[0].Get(0) // clock at the release (PostRelease ticks afterwards)
	s.PostRelease(0, 0)
	s.PreAcquire(1, 0)
	if s.P[1].Get(0) != c0 {
		t.Errorf("HB rel→acq edge missing: %v", s.P[1])
	}
}

func TestDCNoLockEdges(t *testing.T) {
	s := newState(DC, 2)
	s.PostAcquire(0, 0)
	s.PostRelease(0, 0)
	s.PreAcquire(1, 0)
	if s.P[1].Get(0) != 0 {
		t.Error("DC must not propagate along lock edges")
	}
}

func TestWCPLockEdgeStripsOwnComponent(t *testing.T) {
	s := newState(WCP, 2)
	s.PostAcquire(0, 0)
	s.PostRelease(0, 0)
	s.PreAcquire(1, 0)
	if s.P[1].Get(0) != 0 {
		t.Errorf("WCP lock edge leaked PO knowledge: %v", s.P[1])
	}
	if s.H[1].Get(0) == 0 {
		t.Error("WCP's HB clock must follow lock edges")
	}
}

func TestWCPSelfKnowledgeExported(t *testing.T) {
	s := newState(WCP, 2)
	// A relation edge delivers knowledge about thread 1 itself to thread 1.
	src := vc.New(2)
	src.Set(1, 7)
	s.JoinP(1, src)
	// Thread 1 releases a lock; the export must carry selfP = 7 (not the
	// local clock, not zero).
	s.PostAcquire(1, 0)
	s.PostRelease(1, 0)
	s.PreAcquire(0, 0)
	if got := s.P[0].Get(1); got != 7 {
		t.Errorf("exported self-knowledge = %d, want 7", got)
	}
}

func TestForkJoinEdges(t *testing.T) {
	for _, rel := range []Relation{HB, WCP, DC, WDC} {
		s := newState(rel, 2)
		s.Tick(0)
		s.Tick(0) // parent at clock 3
		if !s.HandleOther(trace.Event{T: 0, Op: trace.OpFork, Targ: 1}, 0) {
			t.Fatal("fork not handled")
		}
		if s.P[1].Get(0) != 3 {
			t.Errorf("%v: fork edge missing: %v", rel, s.P[1])
		}
		s.Tick(1)
		if !s.HandleOther(trace.Event{T: 0, Op: trace.OpJoin, Targ: 1}, 1) {
			t.Fatal("join not handled")
		}
		if s.P[0].Get(1) < 2 {
			t.Errorf("%v: join edge missing: %v", rel, s.P[0])
		}
	}
}

func TestVolatileConflictEdges(t *testing.T) {
	for _, rel := range []Relation{HB, WCP, DC, WDC} {
		s := newState(rel, 3)
		s.HandleOther(trace.Event{T: 0, Op: trace.OpVolatileWrite, Targ: 0}, 0)
		w0 := s.P[0].Get(0) - 1 // clock at the write (pre-tick)
		// Reader is ordered after the writer.
		s.HandleOther(trace.Event{T: 1, Op: trace.OpVolatileRead, Targ: 0}, 1)
		if s.P[1].Get(0) < w0 {
			t.Errorf("%v: volatile write→read edge missing", rel)
		}
		// A second writer is ordered after both the writer and the reader.
		s.HandleOther(trace.Event{T: 2, Op: trace.OpVolatileWrite, Targ: 0}, 2)
		if s.P[2].Get(0) < w0 || s.P[2].Get(1) == 0 {
			t.Errorf("%v: volatile write–write/read–write edges missing", rel)
		}
	}
}

func TestClassInitEdges(t *testing.T) {
	s := newState(DC, 2)
	s.Tick(0)
	s.HandleOther(trace.Event{T: 0, Op: trace.OpClassInit, Targ: 0}, 0)
	s.HandleOther(trace.Event{T: 1, Op: trace.OpClassAccess, Targ: 0}, 1)
	if s.P[1].Get(0) < 2 {
		t.Error("class init→access edge missing")
	}
}

func TestHandleOtherRejectsAccesses(t *testing.T) {
	s := newState(DC, 1)
	if s.HandleOther(trace.Event{T: 0, Op: trace.OpRead}, 0) {
		t.Error("reads are not sync events")
	}
	if s.HandleOther(trace.Event{T: 0, Op: trace.OpAcquire}, 0) {
		t.Error("acquire is handled by the engines, not HandleOther")
	}
}

func TestGraphHookEdges(t *testing.T) {
	s := newState(DC, 2)
	var edges [][4]int32 // src, dst and their threads
	s.SetHook(edgeFunc(func(src, dst int32, from, to trace.Tid) {
		edges = append(edges, [4]int32{src, dst, int32(from), int32(to)})
	}))

	s.OnEvent(0, 0)
	s.HandleOther(trace.Event{T: 0, Op: trace.OpFork, Targ: 1}, 0)
	s.OnEvent(1, 1) // child's first event: fork edge 0→1, T0 → T1
	s.HandleOther(trace.Event{T: 1, Op: trace.OpVolatileWrite, Targ: 0}, 1)
	s.OnEvent(0, 2)
	s.HandleOther(trace.Event{T: 0, Op: trace.OpVolatileRead, Targ: 0}, 2) // edge 1→2, T1 → T0
	s.OnEvent(1, 3)
	s.HandleOther(trace.Event{T: 1, Op: trace.OpClassInit, Targ: 0}, 3)
	s.OnEvent(0, 4)
	s.HandleOther(trace.Event{T: 0, Op: trace.OpClassAccess, Targ: 0}, 4) // edge 3→4, T1 → T0
	s.HandleOther(trace.Event{T: 0, Op: trace.OpJoin, Targ: 1}, 5)        // edge lastIdx(T1)=3 → 5, T1 → T0
	want := map[[4]int32]bool{{0, 1, 0, 1}: true, {1, 2, 1, 0}: true, {3, 4, 1, 0}: true, {3, 5, 1, 0}: true}
	for _, e := range edges {
		if !want[e] {
			t.Errorf("unexpected edge %v", e)
		}
		delete(want, e)
	}
	for e := range want {
		t.Errorf("missing edge %v", e)
	}
}

type edgeFunc func(src, dst int32, from, to trace.Tid)

func (f edgeFunc) Edge(src, dst int32, from, to trace.Tid) { f(src, dst, from, to) }

func TestSyncStateWeight(t *testing.T) {
	s := newState(WCP, 4)
	if s.Weight() <= 0 {
		t.Error("weight must count thread clocks")
	}
}

func TestRelationAndLevelStrings(t *testing.T) {
	if HB.String() != "HB" || WDC.String() != "WDC" || Relation(99).String() == "" {
		t.Error("Relation.String broken")
	}
	if Unopt.String() != "Unopt" || SmartTrack.String() != "ST" || UnoptG.String() != "Unopt w/G" {
		t.Error("Level.String broken")
	}
	if FT2.String() != "FT2" || FTO.String() != "FTO" {
		t.Error("Level.String broken for FT2/FTO")
	}
}

func TestRunHelper(t *testing.T) {
	tr := &trace.Trace{
		Events: []trace.Event{{T: 0, Op: trace.OpWrite, Targ: 0, Loc: 1}, {T: 1, Op: trace.OpWrite, Targ: 0, Loc: 2}},
	}
	e, ok := Lookup(DC, Unopt)
	if !ok {
		t.Skip("unopt not linked in this package's tests")
	}
	col := Run(e.NewFor(tr), tr)
	if col.Dynamic() != 1 {
		t.Errorf("dynamic = %d", col.Dynamic())
	}
}

// TestMarksTablesKeepTheirLines: the per-thread marks are stored into per
// event, by whichever pipeline worker runs the computation, and a ten-thread
// table is 80 bytes — the allocator would pack other computations' tables
// onto its cache lines. growMarks leaves a Pad's worth of slack on both
// sides: of many tables allocated back to back, grown or not, no two come
// within a line of each other.
func TestMarksTablesKeepTheirLines(t *testing.T) {
	type extent struct{ lo, hi uintptr }
	var tables []extent
	var live [][]threadMark // no table's memory is handed out twice
	for i := 0; i < 512; i++ {
		m := growMarks(nil, 4)
		if i%2 == 1 {
			m = growMarks(m, 10)
		}
		for _, mark := range m {
			if mark != (threadMark{}) {
				t.Fatalf("table %d: a thread starts with mark %v, want no event (the zero mark)", i, mark)
			}
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(m)))
		tables = append(tables, extent{lo, lo + uintptr(cap(m))*unsafe.Sizeof(m[0])})
		live = append(live, m)
	}
	const line = uintptr(len(report.Pad{}))
	slices.SortFunc(tables, func(a, b extent) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(tables); i++ {
		if tables[i].lo < tables[i-1].hi+2*line {
			t.Fatalf("tables at [%#x, %#x) and [%#x, %#x): less than two Pads apart", tables[i-1].lo, tables[i-1].hi, tables[i].lo, tables[i].hi)
		}
	}
	runtime.KeepAlive(live)
}
