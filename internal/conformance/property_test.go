package conformance

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// raceVars runs the analysis for (rel, lvl) on tr and returns the set of
// variables with at least one reported race.
func raceVars(t *testing.T, rel analysis.Relation, lvl analysis.Level, tr *trace.Trace) map[uint32]bool {
	t.Helper()
	entry, ok := analysis.Lookup(rel, lvl)
	if !ok {
		t.Fatalf("no analysis for %v/%v", rel, lvl)
	}
	col := analysis.Run(entry.NewFor(tr), tr)
	set := make(map[uint32]bool)
	for _, v := range col.RaceVars() {
		set[v] = true
	}
	return set
}

func setsEqual(a, b map[uint32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func subset(a, b map[uint32]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func randomConfigs() []workload.RandomConfig {
	var cfgs []workload.RandomConfig
	for seed := int64(0); seed < 40; seed++ {
		cfgs = append(cfgs,
			workload.RandomConfig{Seed: seed, Threads: 3, Vars: 3, Locks: 2, Events: 150},
			workload.RandomConfig{Seed: seed, Threads: 4, Vars: 5, Locks: 3, Events: 300, Volatiles: 1},
			workload.RandomConfig{Seed: seed, Threads: 5, Vars: 4, Locks: 4, Events: 400, ForkJoin: true, Volatiles: 2},
			workload.RandomConfig{Seed: seed, Threads: 2, Vars: 2, Locks: 1, Events: 100, PWrite: 0.7},
		)
	}
	return cfgs
}

// TestOptimizationsPrecisionPreserving checks the paper's central implicit
// claim: for a fixed relation, the epoch/ownership optimizations (FTO) and
// the CCS optimizations (SmartTrack) do not change which variables race.
// (Dynamic race *counts* may differ after a variable's first race — §5.6 —
// but the racing-variable set is determined by first races, which all
// levels detect identically.)
func TestOptimizationsPrecisionPreserving(t *testing.T) {
	for _, cfg := range randomConfigs() {
		tr := workload.Random(cfg)
		for _, rel := range analysis.Relations {
			base := raceVars(t, rel, analysis.Unopt, tr)
			levels := []analysis.Level{analysis.FTO}
			if rel != analysis.HB {
				levels = append(levels, analysis.SmartTrack, analysis.UnoptG)
			} else {
				levels = append(levels, analysis.FT2)
			}
			for _, lvl := range levels {
				got := raceVars(t, rel, lvl, tr)
				if !setsEqual(base, got) {
					t.Fatalf("seed=%d cfg=%+v rel=%v: Unopt races %v but %v races %v",
						cfg.Seed, cfg, rel, keys(base), lvl, keys(got))
				}
			}
		}
	}
}

// TestRelationMonotonicity checks HB ⊆ WCP ⊆ DC ⊆ WDC on racing-variable
// sets: a weaker relation orders fewer event pairs and so can only find
// more races.
func TestRelationMonotonicity(t *testing.T) {
	for _, cfg := range randomConfigs() {
		tr := workload.Random(cfg)
		for _, lvl := range []analysis.Level{analysis.Unopt, analysis.FTO, analysis.SmartTrack} {
			var prev map[uint32]bool
			var prevRel analysis.Relation
			for _, rel := range analysis.Relations {
				if _, ok := analysis.Lookup(rel, lvl); !ok {
					continue
				}
				cur := raceVars(t, rel, lvl, tr)
				if prev != nil && !subset(prev, cur) {
					t.Fatalf("seed=%d lvl=%v: races(%v)=%v ⊄ races(%v)=%v",
						cfg.Seed, lvl, prevRel, keys(prev), rel, keys(cur))
				}
				prev, prevRel = cur, rel
			}
		}
	}
}

// TestGeneratorWellFormed double-checks the generator's well-formedness
// guarantee across a spread of configurations (Random already MustChecks;
// this guards the guarantee if that ever changes).
func TestGeneratorWellFormed(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		tr := workload.Random(workload.RandomConfig{Seed: seed, Threads: 6, Vars: 8, Locks: 5, Events: 500, ForkJoin: true, Volatiles: 3})
		if err := trace.Check(tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestGeneratorDeterminism: same seed, same trace.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := workload.RandomConfig{Seed: 7, Threads: 4, Vars: 4, Locks: 2, Events: 300}
	a, b := workload.Random(cfg), workload.Random(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestRaceFreeUnderAllAnalyses: a fully lock-protected workload must be
// race-free under every analysis (no false positives from any optimization
// or relation on a disciplined program).
func TestRaceFreeUnderAllAnalyses(t *testing.T) {
	b := trace.NewBuilder()
	threads := []string{"T1", "T2", "T3", "T4"}
	for round := 0; round < 30; round++ {
		for _, th := range threads {
			b.Acq(th, "m")
			b.ReadAt(th, "x", 1)
			b.WriteAt(th, "x", 2)
			b.Rel(th, "m")
		}
	}
	tr := trace.MustCheck(b.Build())
	for _, entry := range analysis.All() {
		col := analysis.Run(entry.NewFor(tr), tr)
		if col.Dynamic() != 0 {
			t.Errorf("%s: %d races on race-free trace: %v", entry.Name, col.Dynamic(), col.Races())
		}
	}
}

// TestSameSiteDedup checks static-vs-dynamic race accounting: repeated
// dynamic races at one site count once statically.
func TestSameSiteDedup(t *testing.T) {
	b := trace.NewBuilder()
	b.WriteAt("T1", "x", 42)
	for i := 0; i < 5; i++ {
		b.WriteAt("T2", "x", 42) // same program location, all racing
		b.WriteAt("T1", "x", 42)
	}
	tr := trace.MustCheck(b.Build())
	for _, entry := range analysis.All() {
		col := analysis.Run(entry.NewFor(tr), tr)
		if col.Static() != 1 {
			t.Errorf("%s: static races = %d, want 1", entry.Name, col.Static())
		}
		if col.Dynamic() < 1 {
			t.Errorf("%s: expected dynamic races", entry.Name)
		}
	}
}

func keys(m map[uint32]bool) []uint32 {
	var out []uint32
	for v := range m {
		out = append(out, v)
	}
	return out
}

// TestCollectorBasics exercises the report package's counting.
func TestCollectorBasics(t *testing.T) {
	c := report.NewCollector()
	c.Add(report.Race{Loc: 1, Var: 10})
	c.Add(report.Race{Loc: 1, Var: 10})
	c.Add(report.Race{Loc: 2, Var: 11})
	if c.Dynamic() != 3 || c.Static() != 2 {
		t.Fatalf("dynamic=%d static=%d", c.Dynamic(), c.Static())
	}
	if got := c.RaceVars(); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("RaceVars=%v", got)
	}
	if r, ok := c.FirstRace(10); !ok || r.Loc != 1 {
		t.Fatal("FirstRace failed")
	}
}
