package unopt

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runHB(tr *trace.Trace) *Analysis {
	a := NewHB()
	a.HandleRun(tr.Events, nil)
	return a
}

func runPred(rel analysis.Relation, tr *trace.Trace, g bool) *Analysis {
	a := NewPredictive(rel, g)
	a.HandleRun(tr.Events, nil)
	return a
}

func TestHBBasics(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	a := runHB(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 1 {
		t.Errorf("dynamic = %d", a.Races().Dynamic())
	}
	if a.MetadataWeight() <= 0 {
		t.Error("weight")
	}
}

func TestHBLockSuppression(t *testing.T) {
	b := trace.NewBuilder()
	b.Acq("T1", "m").Write("T1", "x").Rel("T1", "m").
		Acq("T2", "m").Read("T2", "x").Rel("T2", "m")
	a := runHB(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Errorf("locked accesses raced: %v", a.Races().Races())
	}
}

func TestHBSameEpochLikeCheckSkipsRepeats(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T2", "x")
	for i := 0; i < 5; i++ {
		b.ReadAt("T1", "x", 9)
	}
	a := runHB(trace.MustCheck(b.Build()))
	// First read races; the four same-epoch repeats are skipped (§5.1's
	// [Shared Same Epoch]-like check).
	if a.Races().Dynamic() != 1 {
		t.Errorf("dynamic = %d, want 1", a.Races().Dynamic())
	}
}

func TestNewPredictiveRejectsHB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("HB must be rejected")
		}
	}()
	NewPredictive(analysis.HB, false)
}

func TestPredictiveNames(t *testing.T) {
	for lvl, want := range map[analysis.Level]string{analysis.Unopt: "Unopt-DC", analysis.UnoptG: "Unopt-DC w/G"} {
		if e, _ := analysis.Lookup(analysis.DC, lvl); e.Name != want {
			t.Errorf("registered as %q, want %q", e.Name, want)
		}
	}
}

// TestGraphConstruction: on Figure 2 DC's rule (a) orders T1's rel(m)
// (index 3) before T2's rd(y) (5), and that edge is recorded. The
// last-writer edge from wr(y) (2) to rd(y) and rule (b)'s from rel(m) by T1
// to rel(m) by T2 (6) are implied by it and program order — 2 before 3 in
// T1, 5 before 6 in T2 — so they are reached, not recorded.
func TestGraphConstruction(t *testing.T) {
	fig := workload.Figure2()
	a := runPred(analysis.DC, fig.Trace, true)
	g := a.Graph()
	if g == nil || g.Len() == 0 {
		t.Fatal("w/G analysis must build a non-empty graph")
	}
	edges := g.Edges()
	if !slices.Contains(edges, [2]int32{3, 5}) {
		t.Errorf("rule (a) edge 3 → 5 missing from %v", edges)
	}
	reach := reaching(t, fig.Trace.Events, g.Pred)
	for _, e := range [][2]int32{{2, 5}, {3, 6}} {
		if slices.Contains(edges, e) {
			t.Errorf("edge %v recorded in %v; program order and 3 → 5 imply it", e, edges)
		}
		if !reach[e[1]].has(int(e[0])) {
			t.Errorf("event %d does not reach event %d over %v and program order", e[0], e[1], edges)
		}
	}
}

// TestGraphBytesPerEdge holds the three w/G graphs of the fanout15-par
// row's trace (h2/4000, seed 1) to their edge counts and bytes plus 10 %:
// 72,347 edges in 222,728 bytes for WCP, 31,542 in 115,984 for DC and 8,246
// in 33,824 for WDC, chunk slack and the thread-pair table included. The
// graph drops every edge program order and an earlier edge into the thread
// imply; before it did, they held 285,254, 245,156 and 212,855 edges, and
// each byte cap is under a quarter of the 4 B an edge times the edge bound
// allowed then. WCP and DC also stay at ≤ 4 bytes an edge (two varint
// deltas take 3.05 and 3.52; a pair of int32s took 8). WDC's 8,246 edges
// fill four 8 KiB chunks, too few for the per-edge figure to measure the
// encoding's density, so its byte cap bounds its memory instead.
func TestGraphBytesPerEdge(t *testing.T) {
	p, _ := workload.ProgramByName("h2")
	tr := p.Generate(4000, 1)
	for _, tc := range []struct {
		rel          analysis.Relation
		edges, bytes int
		perEdge      bool
	}{
		{analysis.WCP, 79600, 245100, true},
		{analysis.DC, 34700, 127600, true},
		{analysis.WDC, 9100, 37200, false},
	} {
		name := "Unopt-" + tc.rel.String() + " w/G"
		g := runPred(tc.rel, tr, true).Graph()
		bytes := 8 * g.Weight()
		perEdge := float64(bytes) / float64(g.Len())
		t.Logf("%s: %d edges in %d bytes, %.2f B/edge", name, g.Len(), bytes, perEdge)
		if tc.perEdge && perEdge > 4 {
			t.Errorf("%s: %.2f bytes per edge over %d edges, want <= 4", name, perEdge, g.Len())
		}
		if g.Len() > tc.edges {
			t.Errorf("%s: %d edges, want <= %d", name, g.Len(), tc.edges)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: %d bytes, want <= %d", name, bytes, tc.bytes)
		}
	}
}

func TestGraphCostsMemory(t *testing.T) {
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(80000, 1)
	withG := runPred(analysis.DC, tr, true).MetadataWeight()
	withoutG := runPred(analysis.DC, tr, false).MetadataWeight()
	if withG <= withoutG {
		t.Errorf("w/G (%d) must retain more than w/o G (%d)", withG, withoutG)
	}
}

func TestGraphDoesNotChangeRaces(t *testing.T) {
	p, _ := workload.ProgramByName("sunflow")
	tr := p.Generate(80000, 2)
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		a := runPred(rel, tr, false)
		b := runPred(rel, tr, true)
		if a.Races().Dynamic() != b.Races().Dynamic() || a.Races().Static() != b.Races().Static() {
			t.Errorf("%v: graph construction changed results: %d/%d vs %d/%d",
				rel, a.Races().Static(), a.Races().Dynamic(), b.Races().Static(), b.Races().Dynamic())
		}
	}
}

func TestWDCSkipsRuleB(t *testing.T) {
	tr := workload.Figure3().Trace
	wdc := runPred(analysis.WDC, tr, false)
	if wdc.Races().Dynamic() != 1 {
		t.Errorf("WDC races = %d, want 1", wdc.Races().Dynamic())
	}
	dc := runPred(analysis.DC, tr, false)
	if dc.Races().Dynamic() != 0 {
		t.Errorf("DC races = %d, want 0", dc.Races().Dynamic())
	}
}

func TestPriorTidDiagnostics(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	a := runPred(analysis.WDC, trace.MustCheck(b.Build()), false)
	races := a.Races().Races()
	if len(races) != 1 || races[0].PriorTid != 0 {
		t.Errorf("races = %v", races)
	}
}

func TestWriteChecksBothReadAndWrite(t *testing.T) {
	// A write conflicting with both a prior read and a prior write still
	// counts once.
	b := trace.NewBuilder()
	b.Write("T1", "x").Read("T2", "x").Write("T3", "x")
	a := runPred(analysis.WDC, trace.MustCheck(b.Build()), false)
	// T2's read races with T1's write (1); T3's write races with both (1).
	if a.Races().Dynamic() != 2 {
		t.Errorf("dynamic = %d, want 2", a.Races().Dynamic())
	}
}

// TestMetadataWeightCountsLastWriters: a w/G analysis's last-writer table is
// counted a whole page at a time, one word per Source; with no edge drawn it is
// all that tells its weight from the analysis without the graph.
func TestMetadataWeightCountsLastWriters(t *testing.T) {
	if got := unsafe.Sizeof(analysis.Source{}); got != 8 {
		t.Fatalf("a Source is %d bytes, not one word", got)
	}
	g, plain := NewPredictive(analysis.DC, true), NewPredictive(analysis.DC, false)
	evs := []trace.Event{{T: 0, Op: trace.OpWrite, Targ: 99}}
	g.HandleRun(evs, nil)
	plain.HandleRun(evs, nil)
	if got, want := g.MetadataWeight()-plain.MetadataWeight(), g.lastWr.Weight(1, nil); got != want || want < 100 {
		t.Errorf("w/G weighs %d words more, want the %d of its last-writer table", got, want)
	}
}
