package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/race"
)

// scrapePipeline extracts the ingest-pipeline counters from one registry
// snapshot, in snapshot (= registration) order.
func scrapePipeline(t *testing.T, reg *obs.Registry) (journaled, engineFed, analyzed float64) {
	t.Helper()
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "raced_events_journaled_total":
			journaled = s.Value
		case "raced_engine_events_fed_total":
			engineFed = s.Value
		case "raced_events_analyzed_total":
			analyzed = s.Value
		}
	}
	return
}

// scrapeValue reads one unlabeled series from a registry snapshot.
func scrapeValue(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return -1
}

// exposed parses a text exposition into the value of each unlabeled
// sample, by name.
func exposed(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	fams, err := obs.ParseText(r)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if len(s.Labels) == 0 {
				out[s.Name] = s.Value
			}
		}
	}
	return out
}

// TestMetricsScrapeConsistency is the /metrics race-window fix's test:
// scraping the registry mid-ingest must always observe
// journaled ≥ engine-fed ≥ analyzed, because a snapshot reads
// the counters in registration (downstream-first) order.
func TestMetricsScrapeConsistency(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(Config{Registry: reg, DataDir: t.TempDir()})
	defer srv.Close()

	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 1)

	const feeders = 3
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		sess, err := srv.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			const run = 64
			for lo := 0; lo < len(tr.Events); lo += run {
				hi := min(lo+run, len(tr.Events))
				batch := append([]race.Event(nil), tr.Events[lo:hi]...)
				if err := sess.Feed(batch); err != nil {
					t.Errorf("feed: %v", err)
					return
				}
			}
			if err := sess.Flush(); err != nil {
				t.Errorf("flush: %v", err)
			}
			if _, err := sess.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(sess)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrapes := 0
	for {
		select {
		case <-done:
			if scrapes == 0 {
				t.Fatal("no scrapes ran")
			}
			jnl, eng, ana := scrapePipeline(t, reg)
			want := float64(feeders * len(tr.Events))
			if jnl != want || eng < want || ana != want {
				t.Fatalf("final counters jnl=%v eng=%v ana=%v, want all ≥ %v", jnl, eng, ana, want)
			}
			return
		default:
			jnl, eng, ana := scrapePipeline(t, reg)
			if !(jnl >= eng && eng >= ana) {
				t.Fatalf("scrape %d inconsistent: journaled=%v engine=%v analyzed=%v",
					scrapes, jnl, eng, ana)
			}
			scrapes++
		}
	}
}

// TestReplayCountsIntoEngineMetricsOnly pins what a scrape reads after
// Recover replays a journal with no new ingest: the replay is recovery
// work, so journaled and analyzed stay 0, but the fresh engine is fed and
// detects again, so raced_engine_* count the whole replayed stream — and
// journaled ≥ engine-fed ≥ analyzed holds for fresh ingest only.
func TestReplayCountsIntoEngineMetricsOnly(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{DataDir: dir})
	sess, err := s1.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(40000, 1)
	if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	races := scrapeValue(s1.Registry(), "raced_engine_races_total")
	if races <= 0 {
		t.Fatalf("the fed stream detected %v races, want some", races)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{DataDir: dir})
	defer s2.Close()
	if n, err := s2.Recover(); n != 1 || err != nil {
		t.Fatalf("Recover = %d, %v; want 1 session", n, err)
	}
	jnl, eng, ana := scrapePipeline(t, s2.Registry())
	if jnl != 0 || ana != 0 || eng != float64(len(tr.Events)) {
		t.Errorf("after replay: journaled=%v engine-fed=%v analyzed=%v, want 0, %d, 0", jnl, eng, ana, len(tr.Events))
	}
	if got := scrapeValue(s2.Registry(), "raced_engine_races_total"); got != races {
		t.Errorf("after replay: raced_engine_races_total = %v, want the %v the stream detected", got, races)
	}
}

// TestMetricsCatalogExposed: the registry carries the whole catalog under
// canonical names, and its exposition parses.
func TestMetricsCatalogExposed(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	sess, err := srv.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(400000, 2)
	if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := srv.metrics.analyzed.Value(); got != uint64(len(tr.Events)) {
		t.Errorf("raced_events_analyzed_total = %d, want %d", got, len(tr.Events))
	}
	if opened, active := srv.metrics.opened.Value(), srv.ActiveSessions(); opened != 1 || active != 1 {
		t.Errorf("sessions: %d opened, %d active", opened, active)
	}

	var b strings.Builder
	if err := obs.WriteText(&b, srv.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"raced_events_analyzed_total", "raced_events_journaled_total",
		"raced_sessions_active", "raced_engine_races_total",
		"raced_flush_ack_seconds_count", "raced_engine_events_fed_total",
		`raced_sessions_rejected_total{reason="full"}`,
		`raced_sessions_rejected_total{reason="draining"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if _, err := obs.ParseText(strings.NewReader(out)); err != nil {
		t.Errorf("server exposition does not parse: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsContentNegotiation: /metrics serves the Prometheus text
// exposition to every request, whatever its Accept header or query string
// asks for.
func TestMetricsContentNegotiation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ path, accept string }{
		{"/metrics", ""},
		{"/metrics", "*/*"},
		{"/metrics", "application/json"},
		{"/metrics", "text/plain; version=0.0.4"},
		{"/metrics?format=prometheus", ""},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
			t.Errorf("%s, Accept %q: Content-Type = %q, want %q", tc.path, tc.accept, ct, obs.TextContentType)
		}
		if _, ok := exposed(t, resp.Body)["raced_sessions_active"]; !ok {
			t.Errorf("%s, Accept %q: exposition missing raced_sessions_active", tc.path, tc.accept)
		}
		resp.Body.Close()
	}
}

// TestRejectedReasonSplit: admission rejections are counted under their
// reason label — the reason="full" / reason="draining" series are what tell
// backpressure from client mistakes.
func TestRejectedReasonSplit(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(Config{Registry: reg, MaxSessions: 1})
	defer srv.Close()

	// Bad config first — once the pool is full, the admission precheck
	// fires before sink construction and everything counts as "full".
	if _, err := srv.OpenSession(SessionConfig{Analyses: []string{"no-such-analysis"}}); err == nil {
		t.Fatal("open with unknown analysis succeeded")
	}
	if _, err := srv.OpenSession(SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.OpenSession(SessionConfig{}); err != ErrServerFull {
		t.Fatalf("second open = %v, want ErrServerFull", err)
	}

	var b strings.Builder
	if err := obs.WriteText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`raced_sessions_rejected_total{reason="full"} 1`,
		`raced_sessions_rejected_total{reason="config"} 1`,
		`raced_sessions_rejected_total{reason="draining"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
