package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/workload"
	"repro/race/server"
)

// startTracedFleet is startFleet with tracing on at every hop: each backend
// server and the router get their own tracer.
func startTracedFleet(t *testing.T, n int) (*Router, []*Local, string, *tracing.Tracer, []*tracing.Tracer) {
	t.Helper()
	var backends []Backend
	var locals []*Local
	var tracers []*tracing.Tracer
	for i := 0; i < n; i++ {
		bt := tracing.New(tracing.Options{Service: "raced", Seed: uint64(10 + i)})
		srv := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1, Tracer: bt})
		b := NewLocal(string(rune('a'+i))+"-backend", srv)
		locals = append(locals, b)
		backends = append(backends, b)
		tracers = append(tracers, bt)
	}
	rtTracer := tracing.New(tracing.Options{Service: "racefleet", Seed: 99})
	rt, err := New(backends, Options{ProbeInterval: 50 * time.Millisecond, Tracer: rtTracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go rt.ServeTCP(lis)
	return rt, locals, lis.Addr().String(), rtTracer, tracers
}

// fleetSpans indexes every span three tracers hold for one trace id.
func fleetSpans(tr *tracing.Tracer, id tracing.TraceID) map[string][]tracing.SpanData {
	out := make(map[string][]tracing.SpanData)
	for _, sd := range tr.Trace(id) {
		out[sd.Name] = append(out[sd.Name], sd)
	}
	return out
}

func waitForFleetSpan(t *testing.T, tr *tracing.Tracer, id tracing.TraceID, name string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(fleetSpans(tr, id)[name]) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("span %s never recorded for trace %s", name, id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetConnectedSpanTree is the PR's acceptance criterion: a single
// flush through racefleet produces one connected span tree — client spans,
// router spans, and backend spans all share the client's trace id, linked
// parent to child across both network hops — retrievable from
// /debug/traces and exportable as Chrome trace-event JSON.
func TestFleetConnectedSpanTree(t *testing.T) {
	rt, locals, addr, rtTracer, backendTracers := startTracedFleet(t, 2)
	ctx := context.Background()

	cliTracer := tracing.New(tracing.Options{Service: "racedetect", Seed: 5})
	sess, err := server.OpenReliable(ctx, addr, server.SessionConfig{Analyses: []string{"ST-WDC"}},
		server.WithTracer(cliTracer))
	if err != nil {
		t.Fatal(err)
	}
	sc := sess.TraceContext()
	if !sc.Valid() {
		t.Fatal("traced reliable session has no trace context")
	}

	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(200000, 3)
	if err := sess.FeedBatch(tr.Events[:2000]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.CloseJSON(); err != nil {
		t.Fatal(err)
	}

	// Client: session root owns the trace.
	cli := fleetSpans(cliTracer, sc.TraceID)
	if len(cli["client.session"]) != 1 || !cli["client.session"][0].Root {
		t.Fatalf("client.session: %+v", cli["client.session"])
	}

	// Router: the proxied session adopted the client's trace, the session
	// span parents under the client's, and placement + flush spans hang off
	// it. The session span ends when the proxy loop unwinds.
	waitForFleetSpan(t, rtTracer, sc.TraceID, "fleet.session")
	router := fleetSpans(rtTracer, sc.TraceID)
	fleetSess := router["fleet.session"]
	if len(fleetSess) != 1 {
		t.Fatalf("fleet.session spans: %+v", fleetSess)
	}
	if fleetSess[0].Parent != sc.SpanID {
		t.Errorf("fleet.session parent = %s, want the client session span %s", fleetSess[0].Parent, sc.SpanID)
	}
	if len(router["fleet.route_open"]) != 1 || router["fleet.route_open"][0].Parent != fleetSess[0].SpanID {
		t.Errorf("fleet.route_open: %+v", router["fleet.route_open"])
	}
	if len(router["fleet.flush"]) == 0 {
		t.Error("router recorded no fleet.flush span")
	}

	// Backend: exactly one backend carries the trace, its connection-less
	// (local) session spans parented under the router's.
	var backend map[string][]tracing.SpanData
	for i, bt := range backendTracers {
		spans := fleetSpans(bt, sc.TraceID)
		if len(spans) == 0 {
			continue
		}
		if backend != nil {
			t.Fatal("trace appears on more than one backend")
		}
		backend = spans
		_ = locals[i]
	}
	if backend == nil {
		t.Fatal("no backend recorded spans in the client's trace")
	}
	if len(backend["raced.engine.analyze"]) == 0 {
		t.Error("backend recorded no raced.engine.analyze span")
	}
	flushes := backend["raced.flush"]
	if len(flushes) == 0 {
		t.Fatal("backend recorded no raced.flush span")
	}
	// The explicit wire flush parents under the router's fleet.flush span —
	// the cross-hop link for the barrier path. (Close issues a final
	// implicit flush too, which parents under the session context.)
	routerFlushIDs := make(map[tracing.SpanID]bool)
	for _, f := range router["fleet.flush"] {
		routerFlushIDs[f.SpanID] = true
	}
	var linked bool
	for _, f := range flushes {
		if routerFlushIDs[f.Parent] {
			linked = true
		}
	}
	if !linked {
		t.Errorf("no backend raced.flush parents under a router fleet.flush span: %+v", flushes)
	}
	if len(backend["raced.journal.fsync"]) == 0 {
		t.Error("backend recorded no raced.journal.fsync span")
	}

	// /debug/traces on the router serves the tree; ?format=chrome exports
	// loadable trace-event JSON.
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	res, err := http.Get(ts.URL + "/debug/traces?trace=" + sc.TraceID.String())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc struct {
		Service string `json:"service"`
		Spans   []struct {
			Trace string `json:"trace"`
			Name  string `json:"name"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	if doc.Service != "racefleet" || len(doc.Spans) < 3 {
		t.Fatalf("/debug/traces = service %q, %d spans; want racefleet with the session tree", doc.Service, len(doc.Spans))
	}
	for _, sp := range doc.Spans {
		if sp.Trace != sc.TraceID.String() {
			t.Errorf("filtered listing leaked span of trace %s", sp.Trace)
		}
	}

	res2, err := http.Get(ts.URL + "/debug/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	body, err := io.ReadAll(res2.Body)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export is empty")
	}
}

// TestFleetMigrationSpans: an admin-triggered migration records the
// suspend → copy → recover span tree under one fleet.migrate root, and the
// backend's recovery replay joins the same trace across the HTTP hop.
func TestFleetMigrationSpans(t *testing.T) {
	rt, locals, addr, rtTracer, backendTracers := startTracedFleet(t, 2)
	ctx := context.Background()

	sess, err := server.OpenReliable(ctx, addr, server.SessionConfig{Analyses: []string{"ST-WDC"}},
		server.WithRetry(server.RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(200000, 4)
	if err := sess.FeedBatch(tr.Events[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	_, other := holderOf(t, locals, id)
	if err := rt.MigrateSession(ctx, id, other.Name()); err != nil {
		t.Fatal(err)
	}

	var root tracing.SpanData
	var found bool
	for _, sd := range rtTracer.Snapshot() {
		if sd.Name == "fleet.migrate" {
			root, found = sd, true
		}
	}
	if !found {
		t.Fatal("no fleet.migrate span recorded")
	}
	spans := fleetSpans(rtTracer, root.TraceID)
	for _, name := range []string{"fleet.migrate.copy", "fleet.migrate.recover"} {
		ss := spans[name]
		if len(ss) != 1 || ss[0].Parent != root.SpanID {
			t.Errorf("%s: %+v (want one child of fleet.migrate)", name, ss)
		}
	}
	// The target backend replayed the journal inside the same trace.
	var tgt *tracing.Tracer
	for i, l := range locals {
		if l == other {
			tgt = backendTracers[i]
		}
	}
	replay := fleetSpans(tgt, root.TraceID)["raced.journal.replay"]
	if len(replay) == 0 {
		t.Error("migration target recorded no raced.journal.replay span in the migration trace")
	}

	if _, err := sess.CloseJSON(); err != nil {
		t.Fatal(err)
	}
}
