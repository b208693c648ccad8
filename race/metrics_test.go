package race_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/race"
)

// TestMetricsDoNotPerturbReports pins the tentpole invariant: engines
// running all 15 Table 1 cells with a live metrics registry produce
// Close reports byte-identical to uninstrumented batch analysis, on both
// the sequential engine and the parallel pipeline.
func TestMetricsDoNotPerturbReports(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want 15", len(names))
	}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 1)

	bare, err := race.NewEngine(race.WithAnalysisNames(names...))
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(feedAll(t, bare, tr))

	for _, cfg := range []struct {
		name string
		par  int
	}{
		{"sequential", 0},
		{"parallel", runtime.GOMAXPROCS(0) + 1},
	} {
		reg := obs.NewRegistry()
		met := race.NewEngineMetrics(reg, "test_engine")
		opts := []race.Option{race.WithAnalysisNames(names...), race.WithMetrics(met)}
		if cfg.par > 1 {
			opts = append(opts, race.WithParallelism(cfg.par), race.WithBatchSize(64))
		}
		eng, err := race.NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Feed through both entry points so both hot paths run hooked.
		half := len(tr.Events) / 2
		for _, ev := range tr.Events[:half] {
			if err := eng.FeedBatch([]race.Event{ev}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.FeedBatch(tr.Events[half:]); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(rep); got != want {
			t.Errorf("%s: instrumented report differs from bare batch analysis\n--- bare ---\n%s--- instrumented ---\n%s",
				cfg.name, want, got)
		}

		// The registry must have seen the traffic it claims to measure.
		snaps := reg.Snapshot()
		byName := map[string]float64{}
		busy := map[string]float64{}
		for _, s := range snaps {
			if s.Name == "test_engine_computation_busy_seconds_total" {
				busy[s.Labels[0].Value] = s.Value
				continue
			}
			if s.Hist == nil {
				byName[s.Name] = s.Value
			}
		}
		if got := byName["test_engine_events_fed_total"]; got != float64(len(tr.Events)) {
			t.Errorf("%s: events_fed = %v, want %d", cfg.name, got, len(tr.Events))
		}
		if byName["test_engine_races_total"] == 0 {
			t.Errorf("%s: races_total = 0, avrora should race", cfg.name)
		}
		// The 15 cells are 7 computations, each with measured busy time on
		// the pipeline; a sequential engine schedules nothing and registers
		// no such series.
		want := []string{"HB", "WCP", "DC", "WDC", "ST-WCP", "ST-DC", "ST-WDC"}
		if cfg.par <= 1 {
			want = nil
		}
		if len(busy) != len(want) {
			t.Errorf("%s: busy series %v, want one each for %v", cfg.name, busy, want)
		}
		for _, name := range want {
			if busy[name] <= 0 {
				t.Errorf("%s: computation %s has no busy time: %v", cfg.name, name, busy)
			}
		}
	}
}

// TestEngineMetricsExposition: the engine metric family renders to
// parseable Prometheus exposition with histogram children present.
func TestEngineMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	met := race.NewEngineMetrics(reg, "eng")
	eng, err := race.NewEngine(
		race.WithAnalysisNames("ST-WDC", "FTO-HB"),
		race.WithMetrics(met),
		race.WithParallelism(2), race.WithBatchSize(32),
	)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(400000, 3)
	if err := eng.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := obs.WriteText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("engine exposition does not parse: %v\n%s", err, b.String())
	}
	found := map[string]bool{}
	for _, f := range fams {
		found[f.Name] = true
		if f.Name == "eng_feed_batch_seconds" {
			if f.Type != "histogram" {
				t.Errorf("feed_batch type = %s", f.Type)
			}
			if hv := f.Histogram(); hv == nil || hv.Count == 0 {
				t.Errorf("feed_batch histogram empty: %+v", hv)
			}
		}
	}
	for _, want := range []string{
		"eng_events_fed_total", "eng_races_total",
		"eng_feed_batch_seconds", "eng_ring_occupancy", "eng_computation_busy_seconds_total",
	} {
		if !found[want] {
			t.Errorf("exposition missing family %s:\n%s", want, b.String())
		}
	}
	if race.NewEngineMetrics(nil, "x") != nil {
		t.Error("NewEngineMetrics(nil) should be nil")
	}
}
