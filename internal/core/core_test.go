package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	_ "repro/internal/fto" // FTO-DC in TestMetadataWeightTracksHeap
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
	"repro/internal/workload"
)

func run(t *testing.T, rel analysis.Relation, tr *trace.Trace) *Analysis {
	t.Helper()
	a := New(rel)
	for _, e := range tr.Events {
		a.Handle(e)
	}
	return a
}

func TestNewRejectsHB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SmartTrack-HB must panic (N/A in Table 1)")
		}
	}()
	New(analysis.HB)
}

func TestSameEpochCases(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x"). // Write Exclusive (first access)
				Write("T1", "x"). // Write Same Epoch
				Read("T1", "x").  // Read Same Epoch (Rx == cur after write)
				Read("T1", "x")   // Read Same Epoch
	a := run(t, analysis.WDC, trace.MustCheck(b.Build()))
	// Four accesses, one NSEA: the other three are same-epoch.
	if c := a.Stats(); *c != (analysis.Stats{WriteExclusive: 1, HeldAtNSEA: [4]uint64{1}}) {
		t.Errorf("cases = %+v", *c)
	}
}

func TestOwnedCases(t *testing.T) {
	b := trace.NewBuilder()
	b.Read("T1", "x"). // Read Exclusive (first)
				Acq("T1", "m").   // epoch tick
				Read("T1", "x").  // Read Owned (same thread, new epoch)
				Write("T1", "x"). // Write Owned
				Rel("T1", "m")
	a := run(t, analysis.WDC, trace.MustCheck(b.Build()))
	c := a.Stats()
	if c.ReadOwned != 1 || c.WriteOwned != 1 || c.ReadExclusive != 1 {
		t.Errorf("cases = %+v", *c)
	}
}

func TestReadShareUpgrade(t *testing.T) {
	// Two unordered readers force [Read Share]; a third in yet another
	// thread takes [Read Shared]; re-reads take the same-epoch/owned paths.
	b := trace.NewBuilder()
	b.Read("T1", "x").
		Read("T2", "x"). // Read Share (T1's read unordered)
		Read("T3", "x"). // Read Shared
		Acq("T2", "m").
		Read("T2", "x"). // Read Shared Owned (T2 has a slot, new epoch)
		Rel("T2", "m")
	a := run(t, analysis.WDC, trace.MustCheck(b.Build()))
	c := a.Stats()
	if c.ReadShare != 1 || c.ReadShared != 1 || c.ReadSharedOwned != 1 {
		t.Errorf("cases = %+v", *c)
	}
}

func TestWriteSharedAfterReads(t *testing.T) {
	b := trace.NewBuilder()
	b.Read("T1", "x").
		Read("T2", "x").
		Write("T3", "x") // Write Shared — races with both readers
	a := run(t, analysis.WDC, trace.MustCheck(b.Build()))
	if a.Stats().WriteShared != 1 {
		t.Errorf("cases = %+v", *a.Stats())
	}
	// One access ⇒ at most one dynamic race (§5.1) even though the write
	// conflicts with two prior reads.
	if got := a.Races().Dynamic(); got != 1 {
		t.Errorf("dynamic races = %d, want 1", got)
	}
}

func TestNSEAAccounting(t *testing.T) {
	b := trace.NewBuilder()
	b.Acq("T1", "m").
		Write("T1", "x").
		Write("T1", "x"). // same epoch: not an NSEA
		Rel("T1", "m").
		Read("T2", "y")
	a := run(t, analysis.WDC, trace.MustCheck(b.Build()))
	c := a.Stats()
	if c.NSEAWrites() != 1 || c.NSEAReads() != 1 {
		t.Errorf("NSEAs: reads=%d writes=%d", c.NSEAReads(), c.NSEAWrites())
	}
	if h := c.HeldAtNSEA; h[1] != 1 || h[2]+h[3] != 0 {
		t.Errorf("held histogram = %v", c.HeldAtNSEA)
	}
}

// TestExtrasLifecycle drives the Er/Ew metadata through its full cycle
// using Figure 4(c): created at T2's write (residual of T1's open critical
// section), consumed at T3's read under the same lock.
func TestExtrasLifecycle(t *testing.T) {
	fig := workload.Figure4C()
	a := New(analysis.DC)
	sawExtra := false
	for _, e := range fig.Trace.Events {
		a.Handle(e)
		if cd := a.slot(fig.RaceVar).cold; cd != nil && len(cd.ew) > 0 {
			sawExtra = true
		}
	}
	if !sawExtra {
		t.Error("figure 4(c) must populate Ew at T2's write")
	}
	if a.Races().Dynamic() != 0 {
		t.Errorf("figure 4(c) has no DC races, got %v", a.Races().Races())
	}
}

func TestExtrasClearedAtOwnWrite(t *testing.T) {
	fig := workload.Figure4D()
	a := run(t, analysis.DC, fig.Trace)
	if a.Races().Dynamic() != 0 {
		t.Errorf("figure 4(d) has no DC races, got %v", a.Races().Races())
	}
}

// depth counts the sections in l.
func depth(l *csNode) (n int) {
	for ; l != nil; l = l.up {
		n++
	}
	return n
}

func TestCSListPushIsImmutable(t *testing.T) {
	l1 := push(nil, 0)
	l2 := push(l1, 1)
	l3 := push(l1, 2)
	if depth(l1) != 1 || depth(l2) != 2 || depth(l3) != 2 || l1.up != nil {
		t.Fatal("push must leave the list it extends as it was")
	}
	if l2.m != 1 || l3.m != 2 || l2 == l3 {
		t.Error("pushes onto a shared prefix must not alias")
	}
	if l2.up != l1 || l3.up != l1 || outer(l2) != l1 || outer(l3) != l1 {
		t.Error("both lists must share the enclosing one")
	}
}

func TestExtrasSetReplaces(t *testing.T) {
	s0, s1, s5 := &csNode{m: 0}, &csNode{m: 1}, &csNode{m: 5}
	ex := extras{{t: 1, s: s0}, {t: 2, s: s1}}
	ex = ex.set(1, extras{{t: 1, s: s5}})
	if len(ex) != 2 {
		t.Fatalf("ex = %v", ex)
	}
	for _, e := range ex {
		if e.t == 1 && e.s != s5 {
			t.Error("old entries for thread 1 must be replaced")
		}
	}
}

func TestFillReleaseOutOfOrder(t *testing.T) {
	// Non-block-structured locking: acq(m); acq(n); rel(m); rel(n).
	// fillRelease must locate m's entry even though it is not innermost.
	b := trace.NewBuilder()
	b.Acq("T1", "m").Acq("T1", "n").
		Write("T1", "x").
		Rel("T1", "m").Rel("T1", "n").
		Acq("T2", "n").Read("T2", "x").Rel("T2", "n")
	tr := trace.MustCheck(b.Build())
	a := run(t, analysis.WDC, tr)
	// T2's read is in a conflicting critical section on n: no race.
	if a.Races().Dynamic() != 0 {
		t.Errorf("unexpected races: %v", a.Races().Races())
	}
	if a.ht[0] != nil {
		t.Errorf("T1's CS list not drained: %v", a.ht[0])
	}
}

// TestDeferredReleaseVisibleThroughSharedVC is the heart of SmartTrack's CS
// lists: metadata captured while a critical section is open must see the
// release time once it happens, through the shared vector clock reference.
func TestDeferredReleaseVisibleThroughSharedVC(t *testing.T) {
	fig := workload.Figure4A()
	a := run(t, analysis.DC, fig.Trace)
	if a.Races().Dynamic() != 0 {
		t.Errorf("figure 4(a) has no DC races, got %v", a.Races().Races())
	}
	// T2's rd(x) must have taken [Read Share] — the paper's walkthrough.
	if a.Stats().ReadShare == 0 {
		t.Error("figure 4(a) must exercise [Read Share]")
	}
}

func TestMetadataWeightGrows(t *testing.T) {
	small := workload.Figure1()
	a := run(t, analysis.DC, small.Trace)
	w1 := a.MetadataWeight()
	if w1 <= 0 {
		t.Fatal("weight must be positive")
	}
	p, _ := workload.ProgramByName("xalan")
	big := p.Generate(80000, 1)
	a2 := run(t, analysis.DC, big)
	if a2.MetadataWeight() <= w1 {
		t.Error("bigger workload must retain more metadata")
	}
}

func TestWDCvsDCOnFigure3(t *testing.T) {
	fig := workload.Figure3()
	dc := run(t, analysis.DC, fig.Trace)
	wdc := run(t, analysis.WDC, fig.Trace)
	if dc.Races().Dynamic() != 0 {
		t.Errorf("ST-DC must order figure 3 via rule (b): %v", dc.Races().Races())
	}
	if wdc.Races().Dynamic() != 1 {
		t.Errorf("ST-WDC must report figure 3's race, got %d", wdc.Races().Dynamic())
	}
}

func TestNamesAndAccessors(t *testing.T) {
	for rel, want := range map[analysis.Relation]string{
		analysis.WCP: "ST-WCP", analysis.DC: "ST-DC", analysis.WDC: "ST-WDC",
	} {
		if e, _ := analysis.Lookup(rel, analysis.SmartTrack); e.Name != want {
			t.Errorf("registered as %q, want %q", e.Name, want)
		}
		a := New(rel)
		if a.Races() == nil || a.Stats() == nil {
			t.Error("nil accessors")
		}
	}
}

// TestCaptureSeesOutOfOrderRelease: a variable that captured [m, n] before
// m was released out of nesting order sees m's release time afterwards, and
// one that captured the rebuilt list [n] after it sees n's. The rebuild is a
// new node aliasing n's original, and n's release fills both with one view.
func TestCaptureSeesOutOfOrderRelease(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "y"). // ordered before the later reads of y only through rel(m) / rel(n)
				Acq("T1", "m").Acq("T1", "n").
				Write("T1", "x"). // captures [m, n]
				Rel("T1", "m").
				Write("T1", "z"). // captures the rebuilt [n]
				Rel("T1", "n").
				Acq("T2", "m").Read("T2", "x").Read("T2", "y").Rel("T2", "m").
				Acq("T3", "n").Read("T3", "z").Read("T3", "y").Rel("T3", "n")
	tr := trace.MustCheck(b.Build())
	a := New(analysis.WDC)
	for _, e := range tr.Events[:6] {
		a.Handle(e)
	}
	x, z := a.slot(b.VarID("x")), a.slot(b.VarID("z"))
	if depth(x.lw) != 2 || !outer(x.lw).released || x.lw.released {
		t.Fatalf("x's list must read [m released, n open]: %+v", x.lw)
	}
	if depth(z.lw) != 1 || z.lw == x.lw || a.ht[0] != z.lw || !slices.Equal(a.alias[0], []alias{{z.lw, x.lw}}) {
		t.Fatal("the rebuilt list must be a new node aliasing n's original")
	}
	for _, e := range tr.Events[6:] {
		a.Handle(e)
	}
	if !z.lw.released || !x.lw.released || z.lw.rel != x.lw.rel || a.ht[0] != nil || len(a.alias[0]) != 0 {
		t.Error("n's release must reach both of its nodes, one view in each")
	}
	if a.Races().Dynamic() != 0 {
		t.Errorf("both readers are in conflicting critical sections: %v", a.Races().Races())
	}
}

// TestSectionRebuiltTwice: a thread holds a, b and c and releases a, then b,
// out of nesting order, writing a variable after each step, so c is rebuilt
// twice and three lists hold three nodes of it. Each list must read every
// release through its own node, and the alias list must drain.
func TestSectionRebuiltTwice(t *testing.T) {
	b := trace.NewBuilder()
	b.Acq("T1", "a").Acq("T1", "b").Acq("T1", "c").
		Write("T1", "x0"). // captures [a, b, c]
		Rel("T1", "a").
		Write("T1", "x1"). // captures [b', c']
		Rel("T1", "b").
		Write("T1", "x2"). // captures [c'']
		Rel("T1", "c").
		Write("T1", "x3") // captures []
	tr := trace.MustCheck(b.Build())
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		a := New(rel)
		for _, e := range tr.Events {
			a.Handle(e)
		}
		var lists [4]*csNode
		for i := range lists {
			lists[i] = a.slot(b.VarID(fmt.Sprintf("x%d", i))).lw
		}
		if depth(lists[0]) != 3 || depth(lists[1]) != 2 || depth(lists[2]) != 1 || lists[3] != nil {
			t.Fatalf("ST-%v: lists of depths %d, %d, %d, %d, want 3, 2, 1, 0", rel, depth(lists[0]), depth(lists[1]), depth(lists[2]), depth(lists[3]))
		}
		c := lists[0] // c's original node; b's is its up
		for i, n := range lists[1:3] {
			if n == c || !n.released || n.rel != c.rel {
				t.Errorf("ST-%v: x%d's node of c reads %+v, want its own node reading %+v", rel, i+1, n, c)
			}
		}
		if b1 := lists[1].up; b1 == c.up || !b1.released || b1.rel != c.up.rel {
			t.Errorf("ST-%v: x1's node of b reads %+v, want its own node reading %+v", rel, b1, c.up)
		}
		if !c.released || !c.up.released || !outer(c).released || c.rel == c.up.rel {
			t.Errorf("ST-%v: x0's list must read three distinct releases", rel)
		}
		if a.ht[0] != nil || len(a.alias[0]) != 0 {
			t.Errorf("ST-%v: T1 holds nothing, yet its list is %v and its aliases %v", rel, a.ht[0], a.alias[0])
		}
	}
}

// TestOpenSectionOfAnotherWriterIsKept pins the one MultiCheck whose list is
// not owned by the thread it is run for: [Write Exclusive]'s
// MultiCheck(Lw_x, u, ⊥) when u read x after W wrote it. W's section on b is
// still open at T's write (W released a out of order), so it is neither
// ordered nor conflicting and must survive in Ew_x for R, who later reads x
// under b, to be ordered after W's release — as Unopt-WDC's rule (a) has it.
// (Through PR 22 the open section's clock read 0 in u's slot, counted as
// ordered, and R's read of q raced.)
func TestOpenSectionOfAnotherWriterIsKept(t *testing.T) {
	b := trace.NewBuilder()
	b.VolWrite("U", "v0").
		VolRead("W", "v0"). // W knows more of U than T ever will
		Write("W", "q").Acq("W", "a").Acq("W", "b").Write("W", "x").Rel("W", "a").
		VolWrite("W", "v1").
		VolRead("U", "v1").Acq("U", "c").Read("U", "x"). // [Read Exclusive]
		Write("T", "x").                                 // races with U's read; U's c and W's b left over
		Rel("W", "b").
		Acq("R", "b").Read("R", "x").Read("R", "q").Rel("R", "b").
		Rel("U", "c")
	tr := trace.MustCheck(b.Build())
	ref, _ := analysis.Lookup(analysis.WDC, analysis.Unopt)
	want := analysis.Run(ref.NewFor(tr), tr).RaceVars()
	got := run(t, analysis.WDC, tr).Races().RaceVars()
	if !slices.Equal(want, got) || len(got) != 1 || got[0] != b.VarID("x") {
		t.Errorf("racing variables %v, Unopt-WDC %v, want only x", got, want)
	}
}

// TestSmartTrackStateFitsBudget pins the per-variable and per-section
// footprints, each held to its Go size class, and the word
// counts MetadataWeight charges for them.
func TestSmartTrackStateFitsBudget(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size, budget uintptr
		words        int
	}{
		{"stVar", unsafe.Sizeof(stVar{}), 40, slotWords},
		{"stCold", unsafe.Sizeof(stCold{}), 80, coldWords},
		{"csNode", unsafe.Sizeof(csNode{}), 32, nodeWords},
	} {
		if tc.size > tc.budget {
			t.Errorf("%s is %d bytes, budget %d", tc.name, tc.size, tc.budget)
		}
		if tc.words > 0 && uintptr(8*tc.words) != tc.size {
			t.Errorf("%s is %d bytes, MetadataWeight counts %d words", tc.name, tc.size, tc.words)
		}
	}
}

// steady builds an ST-WDC analysis with threads "A" (holding three nested
// locks) and "B" (holding none), and returns a feeder that interns names
// through one builder, so that a loop body can be replayed allocation-free.
func steady(t testing.TB) (a *Analysis, events func(build func(b *trace.Builder)) []trace.Event) {
	t.Helper()
	b := trace.NewBuilder()
	b.Acq("A", "k1").Acq("A", "k2").Acq("A", "k3").Write("B", "y").Write("B", "z")
	a = New(analysis.WDC)
	fed := 0
	events = func(build func(*trace.Builder)) []trace.Event {
		build(b)
		evs := b.Build().Events[fed:]
		fed += len(evs)
		return evs
	}
	for _, e := range events(func(*trace.Builder) {}) {
		a.Handle(e)
	}
	return a, events
}

// TestAccessPathsDoNotAllocate: under three nested locks, in steady state,
// no access case allocates — capturing a CS list is a pointer store, and
// residual sections land in buffers the variable and the analysis keep.
func TestAccessPathsDoNotAllocate(t *testing.T) {
	a, events := steady(t)
	body := events(func(b *trace.Builder) {
		b.VolWrite("B", "v").VolRead("A", "v").
			Read("A", "y").  // [Read Exclusive]: B's write is ordered, A's list captured
			Read("A", "y").  // [Read Same Epoch]
			Write("A", "y"). // [Write Owned]
			Write("A", "y"). // [Write Same Epoch]
			Write("A", "z"). // [Write Exclusive]
			VolWrite("A", "w").
			Read("A", "y"). // [Read Owned]
			VolWrite("A", "w").VolRead("B", "w").
			Write("B", "y"). // [Write Exclusive] against A's open list: three residual sections
			Write("B", "z")
	})
	passes := 0
	loop := func() {
		passes++
		for _, e := range body {
			a.Handle(e)
		}
	}
	loop() // first pass sizes the clocks, y's and z's cold blocks and the residual buffer
	before, passed := *a.Stats(), passes
	if n := testing.AllocsPerRun(100, loop); n != 0 {
		t.Errorf("%v allocations per pass over the access cases, want 0", n)
	}
	c := a.Stats()
	var reads, writes uint64 // fed since before
	for _, e := range body {
		switch e.Op {
		case trace.OpRead:
			reads += uint64(passes - passed)
		case trace.OpWrite:
			writes += uint64(passes - passed)
		}
	}
	for name, hit := range map[string]bool{
		"ReadExclusive": c.ReadExclusive > before.ReadExclusive, "ReadSameEpoch": c.NSEAReads()-before.NSEAReads() < reads,
		"ReadOwned": c.ReadOwned > before.ReadOwned, "WriteOwned": c.WriteOwned > before.WriteOwned,
		"WriteSameEpoch": c.NSEAWrites()-before.NSEAWrites() < writes, "WriteExclusive": c.WriteExclusive > before.WriteExclusive,
		"three locks held": c.HeldAtNSEA[3] > before.HeldAtNSEA[3],
	} {
		if !hit {
			t.Errorf("the loop never took %s", name)
		}
	}
	if cd := a.slot(0).cold; cd == nil || len(cd.er) != 3 {
		t.Error("B's write must leave A's three open sections in Er_y")
	}
	if a.Races().Dynamic() != 0 {
		t.Errorf("every access is ordered by a volatile, yet %d races", a.Races().Dynamic())
	}
}

// TestCriticalSectionAllocatesItsNodeAndNewSnapshots: an acquire is one list
// node, nested or not; a release allocates only when its thread's clock
// changed on another thread's component since its last release — here by a
// volatile write of the other thread read before the section — and then one
// exactly-sized snapshot.
func TestCriticalSectionAllocatesItsNodeAndNewSnapshots(t *testing.T) {
	a, events := steady(t)
	for _, tc := range []struct {
		thread, other string
		learns        bool
		want          float64
	}{
		{"A", "B", false, 1},
		{"B", "A", false, 1},
		{"A", "B", true, 2},
		{"B", "A", true, 2},
	} {
		pair := events(func(b *trace.Builder) {
			if tc.learns {
				b.VolWrite(tc.other, "v").VolRead(tc.thread, "v")
			}
			b.Acq(tc.thread, "m").Write(tc.thread, "x"+tc.thread).Rel(tc.thread, "m")
		})
		loop := func() {
			for _, e := range pair {
				a.Handle(e)
			}
		}
		loop()
		if n := testing.AllocsPerRun(100, loop); n != tc.want {
			t.Errorf("thread %s (learns from %s: %v): %v allocations per acquire/release pair, want %v", tc.thread, tc.other, tc.learns, n, tc.want)
		}
	}
}

// TestMetadataWeightTracksHeap holds the memory instrument to the heap: the
// paper-table memory factor is 8*MetadataWeight(), so it has to follow what
// the analysis really retains — within 15 % for ST-WDC on xalan's nested
// sections, whose snapshots many sections share, and on the sync-dense h2
// generator for the cells whose rule (b) history is most of what they hold.
func TestMetadataWeightTracksHeap(t *testing.T) {
	for _, tc := range []struct {
		cell, program string
		scale         int
		lo, hi        float64
	}{
		{"ST-WDC", "xalan", 1000, 0.85, 1.15},
		{"ST-DC", "h2", 20000, 0.85, 1.15},
		{"ST-WCP", "h2", 20000, 0.85, 1.15},
		{"FTO-DC", "h2", 20000, 0.85, 1.15},
		{"FTO-WCP", "h2", 20000, 0.85, 1.15},
		{"FTO-WDC", "h2", 20000, 0.85, 1.15},
		{"Unopt-DC w/G", "h2", 20000, 0.85, 1.15},
		{"Unopt-WCP w/G", "h2", 20000, 0.85, 1.15},
	} {
		p, _ := workload.ProgramByName(tc.program)
		tr := p.Generate(tc.scale, 1)
		ent, _ := analysis.ByName(tc.cell)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		a := ent.NewFor(tr)
		a.HandleRun(tr.Events, nil)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		// The collector's race list is the report, not analysis metadata.
		races := a.Races().Dynamic() * int(unsafe.Sizeof(report.Race{}))
		grown := int(m1.HeapAlloc) - int(m0.HeapAlloc) - races
		counted := 8 * a.MetadataWeight()
		ratio := float64(counted) / float64(grown)
		t.Logf("%s on %s: heap grew %d B net of %d B of races; MetadataWeight counts %d B (%.2f×)", tc.cell, tc.program, grown, races, counted, ratio)
		if ratio < tc.lo || ratio > tc.hi {
			t.Errorf("%s on %s: 8*MetadataWeight() = %d B, heap growth %d B: %.2f× is outside [%.2f, %.2f]", tc.cell, tc.program, counted, grown, ratio, tc.lo, tc.hi)
		}
		runtime.KeepAlive(tr)
	}
}

// FuzzSectionReleaseTimes holds SmartTrack's sections to the release times
// they stand for, over the workload.RandomConfig tuple that
// FuzzReleaseSnapshots in internal/ccs draws from, with some releases out of
// nesting order. An ST-WDC section views its thread's snapshot; an ST-WCP or
// ST-DC section views the clock rule (b) logged, often a record over the
// thread's base. Right after each release the section reads, on every
// component, the releasing thread's clock as the release left it — H[t] for
// WCP, P[t] for DC and WDC, after rule (b)'s joins and before the tick; at
// the end of the trace every section still does, so no snapshot or base was
// written after a section viewed it.
func FuzzSectionReleaseTimes(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint16(2000), uint8(3), true)
	f.Add(int64(7), uint8(8), uint8(2), uint8(1), uint8(0), uint16(3000), uint8(1), false)
	f.Add(int64(42), uint8(3), uint8(12), uint8(5), uint8(3), uint16(1500), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, threads, vars, locks, volatiles uint8, events uint16, maxDepth uint8, forkJoin bool) {
		tr := unstructure(workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 1 + int(threads%10), Vars: 1 + int(vars%16), Locks: 1 + int(locks%6),
			Volatiles: int(volatiles % 4), Events: int(events % 4000), MaxDepth: 1 + int(maxDepth%4), ForkJoin: forkJoin,
		}), seed)
		type release struct {
			idx  int
			s    *csNode
			want *vc.VC
		}
		for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
			check := func(r release, when string) {
				for u := range vc.Tid(max(r.want.Len(), r.s.rel.Len()) + 1) {
					if got, want := r.s.at(u), r.want.Get(u); !r.s.released || got != want {
						t.Fatalf("ST-%v, %s: the section of release %d reads %d for thread %d (released %v), want %d", rel, when, r.idx, got, u, r.s.released, want)
					}
				}
			}
			a := New(rel)
			var rels []release
			for i, e := range tr.Events {
				r := release{idx: i}
				if e.Op == trace.OpRelease {
					for n := a.ht[e.T]; n != nil && r.s == nil; n = n.up {
						if n.m == e.Targ {
							r.s = n
						}
					}
				}
				a.Handle(e)
				if r.s != nil {
					clock := a.s.P[e.T]
					if rel == analysis.WCP {
						clock = a.s.H[e.T]
					}
					tt := vc.Tid(e.T)
					r.want = clock.Copy()
					r.want.Set(tt, clock.Get(tt)-1) // the release's tick
					check(r, "at the release")
					rels = append(rels, r)
				}
			}
			for _, r := range rels {
				check(r, "at the end of the trace")
			}
		}
	})
}

// BenchmarkCriticalSection prices one acquire/release pair with a write
// inside, nested under three held locks: a list node, a captured list and a
// release that views the thread's snapshot.
func BenchmarkCriticalSection(b *testing.B) {
	a, events := steady(b)
	pair := events(func(tb *trace.Builder) { tb.Acq("A", "m").Write("A", "x").Rel("A", "m") })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range pair {
			a.Handle(e)
		}
	}
}

// BenchmarkCapture prices a non-same-epoch access under three nested locks:
// 256 owned reads that each capture the thread's CS list, per tick of the
// thread's clock.
func BenchmarkCapture(b *testing.B) {
	a, events := steady(b)
	tick := events(func(tb *trace.Builder) { tb.VolWrite("A", "v") })[0]
	reads := make([]trace.Event, 256)
	for i := range reads {
		reads[i] = trace.Event{T: tick.T, Op: trace.OpRead, Targ: uint32(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(reads) == 0 {
			a.Handle(tick)
		}
		a.Handle(reads[i%len(reads)])
	}
}
