package conformance

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/race"
)

func channelConfigs() []workload.ChannelsConfig {
	var cfgs []workload.ChannelsConfig
	for seed := int64(0); seed < 25; seed++ {
		cfgs = append(cfgs,
			workload.ChannelsConfig{Seed: seed},
			workload.ChannelsConfig{Seed: seed, Threads: 6, Chans: 5, MaxCap: 4, Events: 800},
			workload.ChannelsConfig{Seed: seed, Threads: 3, Chans: 2, MaxCap: 1, Vars: 2, Events: 300, PSend: 0.3, PRecv: 0.3},
			workload.ChannelsConfig{Seed: seed, Threads: 5, Chans: 4, MaxCap: 2, Locks: 3, Events: 600, PClose: 0.01},
		)
	}
	return cfgs
}

// TestChannelWorkloadWellFormed guards the generator's well-formedness
// guarantee across a spread of channel-heavy configurations.
func TestChannelWorkloadWellFormed(t *testing.T) {
	for _, cfg := range channelConfigs() {
		tr := workload.Channels(cfg)
		if err := trace.Check(tr); err != nil {
			t.Fatalf("cfg=%+v: %v", cfg, err)
		}
		if tr.Counts()[trace.OpVolatileRead]+tr.Counts()[trace.OpVolatileWrite] == 0 {
			t.Fatalf("cfg=%+v: no channel traffic generated", cfg)
		}
	}
}

// TestChannelWorkloadDeterminism: same config, same trace.
func TestChannelWorkloadDeterminism(t *testing.T) {
	cfg := workload.ChannelsConfig{Seed: 11, Threads: 5, Chans: 4, Events: 500}
	a, b := workload.Channels(cfg), workload.Channels(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestChannelStreamingEqualsBatch is the online/offline conformance
// check over channel-heavy traces: for every registered analysis, the
// streaming engine path (events fed one at a time, exactly as from a
// live instrumented program) must produce the same report as a direct
// batch run over the materialized trace.
func TestChannelStreamingEqualsBatch(t *testing.T) {
	for _, cfg := range channelConfigs() {
		tr := workload.Channels(cfg)
		for _, entry := range analysis.All() {
			batch := analysis.Run(entry.NewFor(tr), tr)

			eng, err := race.NewEngine(race.WithAnalysisNames(entry.Name))
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
			}
			for _, ev := range tr.Events {
				if err := eng.FeedBatch([]race.Event{ev}); err != nil {
					t.Fatalf("%s seed=%d: Feed: %v", entry.Name, cfg.Seed, err)
				}
			}
			rep, err := eng.Close()
			if err != nil {
				t.Fatalf("%s seed=%d: Close: %v", entry.Name, cfg.Seed, err)
			}

			if rep.Dynamic() != batch.Dynamic() || rep.Static() != batch.Static() {
				t.Errorf("%s seed=%d: streaming (dyn=%d, st=%d) != batch (dyn=%d, st=%d)",
					entry.Name, cfg.Seed, rep.Dynamic(), rep.Static(), batch.Dynamic(), batch.Static())
			}
			got, want := rep.RaceVars(), batch.RaceVars()
			if len(got) != len(want) {
				t.Errorf("%s seed=%d: streaming race vars %v != batch %v", entry.Name, cfg.Seed, got, want)
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s seed=%d: streaming race vars %v != batch %v", entry.Name, cfg.Seed, got, want)
					break
				}
			}
		}
	}
}

// TestChannelWorkloadRelationMonotonicity extends the HB ⊆ WCP ⊆ DC ⊆
// WDC racing-variable containment to channel-heavy traces.
func TestChannelWorkloadRelationMonotonicity(t *testing.T) {
	for _, cfg := range channelConfigs()[:40] {
		tr := workload.Channels(cfg)
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
