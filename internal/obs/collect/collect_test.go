package collect

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeExposition serves a registry as a raced-shaped /metrics endpoint
// (Prometheus text under ?format=prometheus, like the daemons).
func fakeExposition(t *testing.T, reg *obs.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", obs.TextContentType)
		obs.WriteText(w, reg.Snapshot())
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestScrapeAggregatesExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("raced_events_analyzed_total", "events").Add(1200)
	reg.Counter("raced_sessions_opened_total", "opens",
		obs.Label{Key: "kind", Value: "wire"}).Add(3)
	reg.Counter("raced_sessions_opened_total", "opens",
		obs.Label{Key: "kind", Value: "http"}).Add(4)
	reg.GaugeFunc("raced_sessions_active", "active", func() float64 { return 2 })
	h := reg.Histogram("raced_flush_ack_seconds", "acks", []float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}

	srv := fakeExposition(t, reg)
	s, err := Scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if !s.Up {
		t.Error("sample not marked up")
	}
	if got := s.Counters["raced_events_analyzed_total"]; got != 1200 {
		t.Errorf("events counter = %v, want 1200", got)
	}
	// Labeled series keep their label sets as distinct keys.
	if got := s.Counters[`raced_sessions_opened_total{kind="wire"}`]; got != 3 {
		t.Errorf("wire opens = %v, want 3", got)
	}
	if got := s.Gauges["raced_sessions_active"]; got != 2 {
		t.Errorf("active gauge = %v, want 2", got)
	}
	hs, ok := s.Histograms["raced_flush_ack_seconds"]
	if !ok {
		t.Fatal("flush-ack histogram missing")
	}
	if hs.Count != 100 {
		t.Errorf("histogram count = %d, want 100", hs.Count)
	}
	if hs.P50 <= 0.01 || hs.P50 > 0.1 {
		t.Errorf("p50 = %v, want in (0.01, 0.1] (all observations were 0.05)", hs.P50)
	}
}

func TestScrapeDownTarget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := Scrape(srv.Client(), srv.URL); err == nil {
		t.Fatal("scrape of a 500 endpoint succeeded, want error")
	}
}

// sampleAt builds a TargetSample holding just the fleet throughput counter.
func sampleAt(total float64) TargetSample {
	return TargetSample{Up: true, Counters: map[string]float64{ThroughputCounter: total}}
}

func TestCollectorCounterDeltaThroughput(t *testing.T) {
	rep := &Report{Schema: SchemaVersion, Targets: []string{"a", "b"}}
	col := New(rep)
	t0 := time.Unix(1000, 0)

	// Round 1: two targets at 1000 + 500 events. No delta yet.
	c1 := col.Record(t0, map[string]TargetSample{"a": sampleAt(1000), "b": sampleAt(500)})
	if c1.Fleet.EventsAnalyzedTotal != 1500 {
		t.Errorf("round 1 total = %v, want 1500", c1.Fleet.EventsAnalyzedTotal)
	}
	if c1.Fleet.EventsPerSecond != 0 {
		t.Errorf("round 1 eps = %v, want 0 (no previous round)", c1.Fleet.EventsPerSecond)
	}

	// Round 2, 5s later: +5000 fleet-wide -> 1000 events/s.
	c2 := col.Record(t0.Add(5*time.Second), map[string]TargetSample{"a": sampleAt(4000), "b": sampleAt(2500)})
	if c2.Fleet.EventsPerSecond != 1000 {
		t.Errorf("round 2 eps = %v, want 1000", c2.Fleet.EventsPerSecond)
	}

	// Round 3, 5s later: a restarted backend reset its counter — the
	// negative delta must contribute nothing, not a negative rate.
	c3 := col.Record(t0.Add(10*time.Second), map[string]TargetSample{"a": sampleAt(0), "b": sampleAt(2500)})
	if c3.Fleet.EventsPerSecond != 0 {
		t.Errorf("round 3 eps = %v, want 0 after counter reset", c3.Fleet.EventsPerSecond)
	}

	col.Finish()
	if rep.Summary.Cycles != 3 {
		t.Errorf("summary cycles = %d, want 3", rep.Summary.Cycles)
	}
	if rep.Summary.PeakEventsPerSecond != 1000 {
		t.Errorf("peak eps = %v, want 1000", rep.Summary.PeakEventsPerSecond)
	}
	// Sustained = accepted delta (5000) over the full 10s window.
	if got := rep.Summary.SustainedEventsPerSecond; got != 500 {
		t.Errorf("sustained eps = %v, want 500", got)
	}
}

// TestCollectorMissedScrapeNoSpike: a target missing one round (down or
// truncated under load) must not have its whole cumulative counter counted
// as one giant delta when it returns — each target's delta is measured
// from its own last successful scrape.
func TestCollectorMissedScrapeNoSpike(t *testing.T) {
	rep := &Report{Schema: SchemaVersion, Targets: []string{"a", "b"}}
	col := New(rep)
	t0 := time.Unix(6000, 0)

	col.Record(t0, map[string]TargetSample{"a": sampleAt(10000), "b": sampleAt(10000)})
	// Round 2: b misses the scrape while a advances by 1000.
	c2 := col.Record(t0.Add(time.Second), map[string]TargetSample{
		"a": sampleAt(11000), "b": {Up: false}})
	if c2.Fleet.EventsPerSecond != 1000 {
		t.Errorf("round 2 eps = %v, want 1000 (only a's delta)", c2.Fleet.EventsPerSecond)
	}
	// Round 3: b is back, having advanced 2000 since round 1; a adds 1000.
	c3 := col.Record(t0.Add(2*time.Second), map[string]TargetSample{
		"a": sampleAt(12000), "b": sampleAt(12000)})
	if c3.Fleet.EventsPerSecond != 3000 {
		t.Errorf("round 3 eps = %v, want 3000 (b resumes from its old baseline)", c3.Fleet.EventsPerSecond)
	}
	col.Finish()
	if rep.Summary.PeakEventsPerSecond != 3000 {
		t.Errorf("peak = %v, want 3000 — the recovery must not register a spike",
			rep.Summary.PeakEventsPerSecond)
	}
	// Sustained covers every accepted delta: 4000 over 2s.
	if got := rep.Summary.SustainedEventsPerSecond; got != 2000 {
		t.Errorf("sustained = %v, want 2000", got)
	}
}

func writeReport(t *testing.T, rep *Report) string {
	t.Helper()
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "LOAD_test.json")
	if err := os.WriteFile(path, doc, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckReportAcceptsCollectedRun(t *testing.T) {
	// End to end: scrape a live fake endpoint twice, then -check the report.
	reg := obs.NewRegistry()
	ctr := reg.Counter("raced_events_analyzed_total", "events")
	ctr.Add(100)
	srv := fakeExposition(t, reg)

	rep := &Report{Schema: SchemaVersion, IntervalSeconds: 1, Targets: []string{srv.URL}}
	col := New(rep)
	t0 := time.Unix(2000, 0)
	s1, err := Scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	col.Record(t0, map[string]TargetSample{srv.URL: s1})
	ctr.Add(900)
	s2, err := Scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	col.Record(t0.Add(time.Second), map[string]TargetSample{srv.URL: s2})
	col.Finish()

	if err := CheckFile(writeReport(t, rep)); err != nil {
		t.Fatalf("CheckFile rejected a clean run: %v", err)
	}
}

func TestCheckReportRejectsNonMonotoneCounter(t *testing.T) {
	rep := &Report{Schema: SchemaVersion, Targets: []string{"a"}}
	col := New(rep)
	t0 := time.Unix(3000, 0)
	col.Record(t0, map[string]TargetSample{"a": sampleAt(1000)})
	col.Record(t0.Add(time.Second), map[string]TargetSample{"a": sampleAt(400)}) // went backwards
	col.Finish()

	err := CheckFile(writeReport(t, rep))
	if err == nil {
		t.Fatal("CheckFile accepted a counter that went backwards")
	}
	if !strings.Contains(err.Error(), "went backwards") {
		t.Errorf("error = %v, want mention of non-monotone counter", err)
	}
}

func TestCheckReportRejectsBadSchema(t *testing.T) {
	rep := &Report{Schema: "racemon/v0", Targets: []string{"a"}}
	New(rep).Record(time.Unix(4000, 0), map[string]TargetSample{"a": sampleAt(1)})
	rep.Summary.Cycles = 1
	if err := CheckFile(writeReport(t, rep)); err == nil {
		t.Fatal("CheckFile accepted an unknown schema version")
	}
}

func TestCheckAcceptsLoadSchema(t *testing.T) {
	// raceload emits the same collector fields under its superset schema;
	// Check must accept it so racemon -check can validate a raceload report.
	rep := &Report{Schema: LoadSchemaVersion, Targets: []string{"a"}}
	col := New(rep)
	col.Record(time.Unix(5000, 0), map[string]TargetSample{"a": sampleAt(10)})
	col.Record(time.Unix(5001, 0), map[string]TargetSample{"a": sampleAt(20)})
	col.Finish()
	if err := Check(rep); err != nil {
		t.Fatalf("Check rejected a raceload/v1 report: %v", err)
	}
}
