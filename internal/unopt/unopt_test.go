package unopt

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runHB(tr *trace.Trace) *Analysis {
	a := NewHB(analysis.SpecOf(tr))
	for _, e := range tr.Events {
		a.Handle(e)
	}
	return a
}

func runPred(rel analysis.Relation, tr *trace.Trace, g bool) *Analysis {
	a := NewPredictive(rel, analysis.SpecOf(tr), g)
	for _, e := range tr.Events {
		a.Handle(e)
	}
	return a
}

func TestHBBasics(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	a := runHB(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 1 {
		t.Errorf("dynamic = %d", a.Races().Dynamic())
	}
	if a.Name() != "Unopt-HB" {
		t.Error("name")
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
	NewPredictive(analysis.HB, analysis.Spec{Threads: 1}, false)
}

func TestPredictiveNames(t *testing.T) {
	tr := &trace.Trace{Threads: 1}
	if NewPredictive(analysis.DC, analysis.SpecOf(tr), false).Name() != "Unopt-DC" {
		t.Error("name w/o G")
	}
	if NewPredictive(analysis.DC, analysis.SpecOf(tr), true).Name() != "Unopt-DC w/G" {
		t.Error("name w/G")
	}
}

func TestGraphConstruction(t *testing.T) {
	fig := workload.Figure2()
	a := runPred(analysis.DC, fig.Trace, true)
	g := a.Graph()
	if g == nil || g.Len() == 0 {
		t.Fatal("w/G analysis must build a non-empty graph")
	}
	// Expected edges: rule (a) from T1's rel(m) (index 3) to T2's rd(y)
	// (index 5); last-writer from wr(y) (2) to rd(y) (5); rule (b) from
	// rel(m) by T1 (3) to rel(m) by T2 (6).
	want := map[[2]int32]bool{{3, 5}: true, {2, 5}: true, {3, 6}: true}
	for _, e := range g.Edges() {
		delete(want, e)
	}
	for e := range want {
		t.Errorf("missing edge %v in %v", e, g.Edges())
	}
}

// TestGraphBytesPerEdge holds the three w/G graphs of the fanout15-par
// row's trace (h2/4000, seed 1) to at most 4 bytes an edge, chunk slack
// included: two varint deltas take about 3.4, a pair of int32s took 8.
func TestGraphBytesPerEdge(t *testing.T) {
	p, _ := workload.ProgramByName("h2")
	tr := p.Generate(4000, 1)
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		a := runPred(rel, tr, true)
		g := a.Graph()
		perEdge := 8 * float64(g.Weight()) / float64(g.Len())
		t.Logf("%s: %d edges, %.2f B/edge", a.Name(), g.Len(), perEdge)
		if perEdge > 4 {
			t.Errorf("%s: %.2f bytes per edge over %d edges, want <= 4", a.Name(), perEdge, g.Len())
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
