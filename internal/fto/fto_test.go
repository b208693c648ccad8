package fto

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
)

func run(rel analysis.Relation, tr *trace.Trace) *Analysis {
	a := New(rel, analysis.SpecOf(tr))
	for _, e := range tr.Events {
		a.Handle(e)
	}
	return a
}

func TestHBMatchesFT2OnFigure1(t *testing.T) {
	fig := workload.Figure1()
	a := run(analysis.HB, fig.Trace)
	if a.Races().Dynamic() != 0 {
		t.Errorf("FTO-HB must miss the predictive race: %v", a.Races().Races())
	}
}

func TestPredictiveFindsFigure1(t *testing.T) {
	fig := workload.Figure1()
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		a := run(rel, fig.Trace)
		if a.Races().Dynamic() != 1 {
			t.Errorf("FTO-%v: dynamic = %d, want 1", rel, a.Races().Dynamic())
		}
	}
}

func TestOwnershipSkipsChecksButTracksState(t *testing.T) {
	// A thread that owns the metadata never triggers race checks, even
	// with unordered writes by others earlier — ownership only kicks in
	// when the owner is the last accessor, so construct: T1 writes, reads,
	// writes across epochs: all owned after the first.
	b := trace.NewBuilder()
	b.Write("T1", "x").
		Acq("T1", "m").Read("T1", "x").Write("T1", "x").Rel("T1", "m").
		Acq("T1", "m").Read("T1", "x").Rel("T1", "m")
	a := run(analysis.HB, trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Errorf("owned accesses raced: %v", a.Races().Races())
	}
}

func TestWriteExclusiveRace(t *testing.T) {
	b := trace.NewBuilder()
	b.Read("T1", "x").Write("T2", "x")
	a := run(analysis.HB, trace.MustCheck(b.Build()))
	races := a.Races().Races()
	if len(races) != 1 || !races[0].Write {
		t.Fatalf("races = %v", races)
	}
	if races[0].PriorTid != 0 {
		t.Errorf("prior tid = %d, want 0", races[0].PriorTid)
	}
}

func TestReadShareReportsWriteRace(t *testing.T) {
	// T1 writes; T2 and T3 read unordered: each unordered read checks the
	// write.
	b := trace.NewBuilder()
	b.Write("T1", "x").Read("T2", "x").Read("T3", "x")
	a := run(analysis.HB, trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 2 {
		t.Errorf("dynamic = %d, want 2", a.Races().Dynamic())
	}
}

func TestRuleAOrdersConflictingCriticalSections(t *testing.T) {
	// Writes to x in critical sections on m by different threads are
	// unordered under DC without rule (a) — with it, no race.
	b := trace.NewBuilder()
	b.Acq("T1", "m").Write("T1", "x").Rel("T1", "m").
		Acq("T2", "m").Write("T2", "x").Rel("T2", "m").
		Acq("T3", "m").Read("T3", "x").Rel("T3", "m")
	a := run(analysis.DC, trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Errorf("conflicting critical sections not ordered: %v", a.Races().Races())
	}
}

func TestDCIgnoresPureLockOrdering(t *testing.T) {
	// Same as above but the critical sections touch different variables:
	// DC leaves the x accesses unordered (predictive race), HB does not.
	b := trace.NewBuilder()
	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m").
		Write("T1", "x")
	b.Acq("T2", "m").Write("T2", "z").Rel("T2", "m")
	b2 := b.Build()
	_ = b2
	b3 := trace.NewBuilder()
	b3.Write("T1", "x").
		Acq("T1", "m").Write("T1", "y").Rel("T1", "m").
		Acq("T2", "m").Write("T2", "z").Rel("T2", "m").
		Write("T2", "x")
	tr := trace.MustCheck(b3.Build())
	if got := run(analysis.HB, tr).Races().Dynamic(); got != 0 {
		t.Errorf("HB races = %d", got)
	}
	if got := run(analysis.DC, tr).Races().Dynamic(); got != 1 {
		t.Errorf("DC races = %d, want 1", got)
	}
}

func TestStatsCounters(t *testing.T) {
	b := trace.NewBuilder()
	b.Acq("T1", "m").
		Write("T1", "x").Write("T1", "x"). // 1 NSEA + 1 same-epoch
		Read("T1", "x").                   // same-epoch (post-write)
		Rel("T1", "m").
		Read("T2", "y") // NSEA, no locks
	a := run(analysis.HB, trace.MustCheck(b.Build()))
	st := a.Stats()
	want := analysis.Stats{WriteExclusive: 1, ReadExclusive: 1, HeldAtNSEA: [4]uint64{1, 1}}
	if *st != want {
		t.Errorf("stats %+v, want %+v", *st, want)
	}
	if st.NSEAs() != 2 {
		t.Errorf("NSEAs = %d, want 2", st.NSEAs())
	}
	if st.HeldAtLeast(1) != 1 {
		t.Errorf("held≥1 = %d, want 1", st.HeldAtLeast(1))
	}

	// The six other cases, each once, after a [Read Exclusive].
	b = trace.NewBuilder()
	b.Read("T1", "x"). // [Read Exclusive]
				Read("T2", "x"). // [Read Share]: T1's read is unordered
				Read("T3", "x"). // [Read Shared]
				Acq("T2", "m").
				Read("T2", "x"). // [Read Shared Owned]
				Rel("T2", "m").
				Write("T3", "x"). // [Write Shared]
				Acq("T3", "m").
				Read("T3", "x").  // [Read Owned]
				Write("T3", "x"). // [Write Owned]
				Rel("T3", "m")
	st = run(analysis.HB, trace.MustCheck(b.Build())).Stats()
	want = analysis.Stats{
		ReadExclusive: 1, ReadShare: 1, ReadShared: 1, ReadSharedOwned: 1, ReadOwned: 1,
		WriteShared: 1, WriteOwned: 1, HeldAtNSEA: [4]uint64{4, 3},
	}
	if *st != want {
		t.Errorf("stats %+v, want %+v", *st, want)
	}
}

func TestWCPRuleAUsesHBTime(t *testing.T) {
	// Figure 2 shape: FTO-WCP must order rd(x) before wr(x) through HB
	// composition, while FTO-DC must not.
	fig := workload.Figure2()
	if got := run(analysis.WCP, fig.Trace).Races().Dynamic(); got != 0 {
		t.Errorf("FTO-WCP races = %d, want 0", got)
	}
	if got := run(analysis.DC, fig.Trace).Races().Dynamic(); got != 1 {
		t.Errorf("FTO-DC races = %d, want 1", got)
	}
}

func TestRuleBFigure3(t *testing.T) {
	fig := workload.Figure3()
	if got := run(analysis.DC, fig.Trace).Races().Dynamic(); got != 0 {
		t.Errorf("FTO-DC must order figure 3 via rule (b), got %d races", got)
	}
	if got := run(analysis.WDC, fig.Trace).Races().Dynamic(); got != 1 {
		t.Errorf("FTO-WDC races = %d, want 1", got)
	}
}

func TestMetadataWeightIncludesTables(t *testing.T) {
	fig := workload.Figure2()
	hb := run(analysis.HB, fig.Trace).MetadataWeight()
	dc := run(analysis.DC, fig.Trace).MetadataWeight()
	if dc <= hb {
		t.Errorf("FTO-DC (%d) must retain more than FTO-HB (%d): rule (a)/(b) state", dc, hb)
	}
}

func TestNames(t *testing.T) {
	tr := &trace.Trace{Threads: 1}
	for rel, want := range map[analysis.Relation]string{
		analysis.HB: "FTO-HB", analysis.WCP: "FTO-WCP",
		analysis.DC: "FTO-DC", analysis.WDC: "FTO-WDC",
	} {
		if got := New(rel, analysis.SpecOf(tr)).Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}
