package ft

import (
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func run(tr *trace.Trace) *Analysis {
	a := New()
	a.HandleRun(tr.Events, nil)
	return a
}

func TestWriteWriteRace(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 1 {
		t.Errorf("dynamic = %d", a.Races().Dynamic())
	}
}

func TestWriteReadRace(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Read("T2", "x")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 1 {
		t.Errorf("dynamic = %d", a.Races().Dynamic())
	}
}

func TestReadReadNoRace(t *testing.T) {
	b := trace.NewBuilder()
	b.Read("T1", "x").Read("T2", "x").Read("T3", "x")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Errorf("reads never race: %v", a.Races().Races())
	}
}

func TestLockOrderingSuppressesRace(t *testing.T) {
	b := trace.NewBuilder()
	b.Acq("T1", "m").Write("T1", "x").Rel("T1", "m").
		Acq("T2", "m").Write("T2", "x").Rel("T2", "m")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Errorf("locked writes raced: %v", a.Races().Races())
	}
}

func TestReadSharedThenOrderedWrite(t *testing.T) {
	// Multiple readers, then a write ordered after all of them via a lock
	// chain: no race, and the read state collapses back to an epoch.
	b := trace.NewBuilder()
	b.Read("T1", "x").Read("T2", "x").Read("T3", "x")
	b.Acq("T1", "m").Rel("T1", "m")
	b.Acq("T2", "m").Rel("T2", "m")
	b.Acq("T3", "m").Rel("T3", "m")
	b.Acq("T1", "m").Write("T1", "x").Rel("T1", "m")
	tr := trace.MustCheck(b.Build())
	a := run(tr)
	// T1's write is ordered after T3/T2's reads? Only via m's chain:
	// rel(m)T2, rel(m)T3 happen before T1's final acquire. Yes: ordered.
	if a.Races().Dynamic() != 0 {
		t.Errorf("ordered shared write raced: %v", a.Races().Races())
	}
	if a.vars.At(0).rvc != nil {
		t.Error("write must collapse the read vector clock")
	}
}

func TestWriteSharedUnorderedRaces(t *testing.T) {
	b := trace.NewBuilder()
	b.Read("T1", "x").Read("T2", "x").Write("T3", "x")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 1 {
		t.Errorf("dynamic = %d, want 1 (one race per access)", a.Races().Dynamic())
	}
}

func TestSameEpochSkips(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Write("T1", "x").Read("T1", "x")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Error("same-thread accesses raced")
	}
}

func TestVolatileOrdering(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").VolWrite("T1", "f").
		VolRead("T2", "f").Write("T2", "x")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Errorf("volatile-ordered writes raced: %v", a.Races().Races())
	}
}

func TestForkJoinOrdering(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Fork("T1", "T2").Write("T2", "x").
		Join("T1", "T2").Write("T1", "x")
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 0 {
		t.Errorf("fork/join-ordered writes raced: %v", a.Races().Races())
	}
}

func TestContinuesAfterRace(t *testing.T) {
	b := trace.NewBuilder()
	b.WriteAt("T1", "x", 1).WriteAt("T2", "x", 2).
		Acq("T1", "m").Rel("T1", "m"). // new epochs
		WriteAt("T1", "x", 1)          // races with T2's write again
	a := run(trace.MustCheck(b.Build()))
	if a.Races().Dynamic() != 2 {
		t.Errorf("dynamic = %d, want 2 (analysis continues after races)", a.Races().Dynamic())
	}
	if a.Races().Static() != 2 {
		t.Errorf("static = %d", a.Races().Static())
	}
}

func TestMetadataWeight(t *testing.T) {
	b := trace.NewBuilder()
	b.Read("T1", "x").Read("T2", "x") // forces a read vector clock
	a := run(trace.MustCheck(b.Build()))
	if a.MetadataWeight() <= 0 {
		t.Error("weight must be positive")
	}
}

func TestName(t *testing.T) {
	if e, _ := analysis.Lookup(analysis.HB, analysis.FT2); e.Name != "FT2" {
		t.Errorf("registered as %q", e.Name)
	}
}

// TestMetadataWeightCountsTheVarTable: the per-variable table is counted a
// whole page at a time — 256 slots for one variable — and at its element's
// size.
func TestMetadataWeightCountsTheVarTable(t *testing.T) {
	if got := unsafe.Sizeof(varState{}); got != 8*varWords {
		t.Fatalf("a varState is %d bytes; varWords counts %d", got, 8*varWords)
	}
	a := New()
	a.HandleRun([]trace.Event{{T: 0, Op: trace.OpWrite, Targ: 99}}, nil)
	if got, want := a.MetadataWeight()-a.Sub.Weight(), a.vars.Weight(varWords, nil); got != want || want < 256*varWords {
		t.Errorf("the var table weighs %d words, want %d, a page of 256 %d-word slots at least", got, want, varWords)
	}
}
