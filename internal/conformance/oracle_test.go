package conformance

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/oracle"
	"repro/internal/vindicate"
	"repro/internal/workload"
)

// tinyConfigs produce traces small enough for the exhaustive oracle.
func tinyConfigs() []workload.RandomConfig {
	var cfgs []workload.RandomConfig
	for seed := int64(0); seed < 60; seed++ {
		cfgs = append(cfgs,
			workload.RandomConfig{Seed: seed, Threads: 3, Vars: 2, Locks: 2, Events: 22},
			workload.RandomConfig{Seed: seed, Threads: 2, Vars: 2, Locks: 1, Events: 26, PWrite: 0.6},
			workload.RandomConfig{Seed: seed, Threads: 4, Vars: 3, Locks: 2, Events: 20},
		)
	}
	return cfgs
}

// TestWCPSoundnessAgainstOracle machine-checks the WCP soundness theorem
// (Kini et al. 2017) on randomized traces: every WCP-race reported by any
// optimization level is a true predictable race per the exhaustive oracle.
// (The theorem technically allows "predictable race or deadlock"; the
// generator's block-structured single-lock-step schedules cannot produce
// the deadlock case.)
func TestWCPSoundnessAgainstOracle(t *testing.T) {
	for _, cfg := range tinyConfigs() {
		tr := workload.Random(cfg)
		for _, lvl := range []analysis.Level{analysis.Unopt, analysis.FTO, analysis.SmartTrack} {
			entry, _ := analysis.Lookup(analysis.WCP, lvl)
			col := analysis.Run(entry.NewFor(tr), tr)
			for _, v := range col.RaceVars() {
				res := oracle.RaceOnVar(tr, v, oracle.Budget{})
				if !res.Complete {
					t.Skip("oracle budget exhausted")
				}
				if !res.Predictable {
					t.Fatalf("seed=%d lvl=%v: WCP race on var %d is not predictable (events: %v)",
						cfg.Seed, lvl, v, tr.Events)
				}
			}
		}
	}
}

// TestHBRaceImpliesPredictable: an execution with an HB-race has a
// predictable race (the first HB-race is always real).
func TestHBRaceImpliesPredictable(t *testing.T) {
	for _, cfg := range tinyConfigs() {
		tr := workload.Random(cfg)
		entry, _ := analysis.Lookup(analysis.HB, analysis.FTO)
		col := analysis.Run(entry.NewFor(tr), tr)
		if col.Dynamic() == 0 {
			continue
		}
		_, _, res := oracle.AnyRace(tr, oracle.Budget{})
		if !res.Complete {
			continue
		}
		if !res.Predictable {
			t.Fatalf("seed=%d: HB-racy trace has no predictable race (events: %v)",
				cfg.Seed, tr.Events)
		}
	}
}

// TestVindicationSoundAgainstOracle: every vindicated pair must be a true
// predictable race by the oracle (witness verification and the oracle are
// independent implementations of the same definition).
func TestVindicationSoundAgainstOracle(t *testing.T) {
	checked := 0
	for _, cfg := range tinyConfigs() {
		tr := workload.Random(cfg)
		v, err := vindicate.New(tr)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range v.Races() {
			if i >= 3 {
				break
			}
			res := v.Race(r.Index, vindicate.Options{Seed: cfg.Seed})
			if !res.Vindicated {
				continue
			}
			or := oracle.PredictableRace(tr, res.E1, res.E2, oracle.Budget{})
			if !or.Complete {
				continue
			}
			checked++
			if !or.Predictable {
				t.Fatalf("seed=%d: vindicated pair (%d,%d) is not predictable; witness %v; events %v",
					cfg.Seed, res.E1, res.E2, res.Witness, tr.Events)
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d vindications cross-checked; widen the configs", checked)
	}
}

// TestOracleRaceImpliesWDCRace probes the converse direction the paper
// claims for WDC ("capable of detecting all predictable races"): on these
// randomized traces, every variable with a predictable race is flagged by
// WDC analysis.
func TestOracleRaceImpliesWDCRace(t *testing.T) {
	for _, cfg := range tinyConfigs() {
		tr := workload.Random(cfg)
		entry, _ := analysis.Lookup(analysis.WDC, analysis.Unopt)
		col := analysis.Run(entry.NewFor(tr), tr)
		flagged := make(map[uint32]bool)
		for _, v := range col.RaceVars() {
			flagged[v] = true
		}
		for x := uint32(0); int(x) < tr.Vars; x++ {
			if flagged[x] {
				continue
			}
			res := oracle.RaceOnVar(tr, x, oracle.Budget{MaxStates: 200000})
			if !res.Complete {
				continue
			}
			if res.Predictable {
				t.Logf("seed=%d: predictable race on var %d missed by WDC (coverage gap, not a soundness bug); events: %v",
					cfg.Seed, x, tr.Events)
			}
		}
	}
}
