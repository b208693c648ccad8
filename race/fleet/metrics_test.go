package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race/server"
)

// TestFleetMetricsExposition drives a two-backend fleet through an open,
// a migration, and a resume, then checks that the canonical fleet_*
// series and the Prometheus exposition of the same registry agree.
func TestFleetMetricsExposition(t *testing.T) {
	rt, locals, _ := startFleet(t, 2)
	ctx := context.Background()

	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(200000, 1)

	id := NewSessionID()
	sess, _, err := rt.routeOpen(ctx, id, server.SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.FeedRecords(wire.AppendEvents(nil, tr.Events[:512])); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Flush(tracing.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	sess.Release()

	holder, other := holderOf(t, locals, id)
	_ = holder
	if err := rt.MigrateSession(ctx, id, other.Name()); err != nil {
		t.Fatal(err)
	}
	sess2, _, _, err := rt.routeResume(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Close(); err != nil {
		t.Fatal(err)
	}

	// Let at least one probe round complete so RTT has samples.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if snapHistCount(rt.reg, "fleet_probe_rtt_seconds") > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	var routed, resumed uint64
	for _, name := range rt.names {
		routed += rt.metrics.sessionsRouted[name].Value()
		resumed += rt.metrics.resumesRouted[name].Value()
	}
	if routed != 1 || resumed != 1 {
		t.Fatalf("routed=%d resumed=%d, want 1 and 1", routed, resumed)
	}

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("content type = %q", ct)
	}
	fams, err := obs.ParseText(res.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	for name, want := range map[string]float64{
		"fleet_migrations_started_total":   1,
		"fleet_migrations_completed_total": 1,
		"fleet_migrations_failed_total":    0,
	} {
		f, ok := byName[name]
		if !ok || len(f.Samples) != 1 || f.Samples[0].Value != want {
			t.Errorf("%s: got %+v, want single sample %v", name, f.Samples, want)
		}
	}
	routedFam, ok := byName["fleet_sessions_routed_total"]
	if !ok || len(routedFam.Samples) != 2 {
		t.Fatalf("fleet_sessions_routed_total: %+v", routedFam)
	}
	var promRouted float64
	for _, s := range routedFam.Samples {
		if s.Label("backend") == "" {
			t.Errorf("series missing backend label: %+v", s)
		}
		promRouted += s.Value
	}
	if promRouted != float64(routed) {
		t.Errorf("prometheus routed sum %v != registry %v", promRouted, routed)
	}
	upFam, ok := byName["fleet_backend_up"]
	if !ok || len(upFam.Samples) != 2 {
		t.Fatalf("fleet_backend_up: %+v", upFam)
	}
	for _, s := range upFam.Samples {
		if s.Value != 1 {
			t.Errorf("backend %s up = %v, want 1", s.Label("backend"), s.Value)
		}
	}
	for _, name := range []string{
		"fleet_migration_copy_seconds", "fleet_migration_recover_seconds",
		"fleet_migration_suspend_seconds", "fleet_probe_rtt_seconds",
	} {
		f, ok := byName[name]
		if !ok || f.Type != "histogram" {
			t.Errorf("%s: missing or not a histogram (%+v)", name, f.Type)
			continue
		}
		h := f.Histogram()
		if h == nil {
			t.Errorf("%s: no histogram samples", name)
			continue
		}
		if name != "fleet_probe_rtt_seconds" && h.Count != 1 {
			t.Errorf("%s count = %d, want 1", name, h.Count)
		}
	}

	// The exposition holds canonical names only — the old aliases
	// (migrations_completed, backends, …) are gone.
	for _, f := range fams {
		if !strings.HasPrefix(f.Name, "fleet_") && !strings.HasPrefix(f.Name, "go_") {
			t.Errorf("exposition has non-canonical family %q", f.Name)
		}
	}
}

// TestFleetMetricsAcceptHeader: the router's /metrics serves the
// Prometheus text exposition to every request, whatever its Accept header
// or query string asks for.
func TestFleetMetricsAcceptHeader(t *testing.T) {
	rt, _, _ := startFleet(t, 1)
	ts := httptest.NewServer(rt.Handler())
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
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := res.Header.Get("Content-Type"); ct != obs.TextContentType {
			t.Errorf("%s, Accept %q: content type = %q, want %q", tc.path, tc.accept, ct, obs.TextContentType)
		}
		fams, err := obs.ParseText(res.Body)
		res.Body.Close()
		if err != nil {
			t.Errorf("%s, Accept %q: exposition does not parse: %v", tc.path, tc.accept, err)
		}
		if !slices.ContainsFunc(fams, func(f obs.Family) bool { return f.Name == "fleet_backend_up" }) {
			t.Errorf("%s, Accept %q: exposition missing fleet_backend_up", tc.path, tc.accept)
		}
	}
}

// snapValues reads a registry snapshot's unlabeled counters and gauges,
// by name.
func snapValues(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		if s.Hist == nil && len(s.Labels) == 0 {
			out[s.Name] = s.Value
		}
	}
	return out
}

// snapHistCount reads one histogram's count out of a registry snapshot.
func snapHistCount(reg *obs.Registry, name string) uint64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Hist != nil {
			return s.Hist.Count
		}
	}
	return 0
}
