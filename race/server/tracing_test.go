package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/workload"
	"repro/race"
)

// spansByName indexes a trace's spans, asserting they all carry the trace id.
func spansByName(t *testing.T, tr *tracing.Tracer, id tracing.TraceID) map[string][]tracing.SpanData {
	t.Helper()
	out := make(map[string][]tracing.SpanData)
	for _, sd := range tr.Trace(id) {
		if sd.TraceID != id {
			t.Errorf("span %s carries trace %s, want %s", sd.Name, sd.TraceID, id)
		}
		out[sd.Name] = append(out[sd.Name], sd)
	}
	return out
}

// waitForSpan polls until the tracer has recorded a span with the given
// name in the trace (spans land in the ring at End, which for connection
// roots trails the client's view of the session by a scheduling beat).
func waitForSpan(t *testing.T, tr *tracing.Tracer, id tracing.TraceID, name string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, sd := range tr.Trace(id) {
			if sd.Name == name {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("span %s never recorded for trace %s", name, id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireTracePropagation is the tentpole's single-server acceptance
// claim: a traced client streaming to a traced server produces ONE trace —
// the client's session, ship, and flush spans and the server's connection,
// journal, engine, and flush spans all share the client's trace
// id, with the server's connection span parented under the client's
// session span.
func TestWireTracePropagation(t *testing.T) {
	srvTracer := tracing.New(tracing.Options{Service: "raced", Seed: 1})
	_, addr := startTCP(t, Config{DataDir: t.TempDir(), Tracer: srvTracer})

	cliTracer := tracing.New(tracing.Options{Service: "racedetect", Seed: 2})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetTracer(cliTracer)

	sess, err := client.Open(SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}
	sc := sess.TraceContext()
	if !sc.Valid() {
		t.Fatal("traced session has no trace context")
	}

	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(200000, 1)
	if err := sess.FeedBatch(tr.Events[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Client half of the tree.
	cli := spansByName(t, cliTracer, sc.TraceID)
	if len(cli["client.session"]) != 1 || !cli["client.session"][0].Root {
		t.Fatalf("client.session: %+v", cli["client.session"])
	}
	for _, name := range []string{"client.ship", "client.flush"} {
		if len(cli[name]) == 0 {
			t.Errorf("client recorded no %s span", name)
		}
		for _, sd := range cli[name] {
			if sd.Parent != sc.SpanID {
				t.Errorf("%s parented under %s, want the session span %s", name, sd.Parent, sc.SpanID)
			}
		}
	}

	// Server half: the connection span ends when the handler unwinds, so
	// allow it a beat to land.
	waitForSpan(t, srvTracer, sc.TraceID, "raced.conn")
	srvSpans := spansByName(t, srvTracer, sc.TraceID)
	conn := srvSpans["raced.conn"]
	if len(conn) != 1 {
		t.Fatalf("raced.conn spans: %+v", conn)
	}
	if conn[0].Parent != sc.SpanID {
		t.Errorf("raced.conn parent = %s, want the client session span %s", conn[0].Parent, sc.SpanID)
	}
	for _, name := range []string{
		"raced.flush",
		"raced.journal.append", "raced.journal.fsync",
		"raced.engine.analyze", "raced.engine.sync",
	} {
		if len(srvSpans[name]) == 0 {
			t.Errorf("server recorded no %s span in the client's trace", name)
		}
	}
}

// TestRecoverySpans: journal recovery is its own span tree — a recover
// root with per-session children and a journal replay under each.
func TestRecoverySpans(t *testing.T) {
	dir := t.TempDir()
	tracer := tracing.New(tracing.Options{Service: "raced", Seed: 3})
	srv := New(Config{DataDir: dir})
	sess, err := srv.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(200000, 2)
	if err := sess.Feed(append([]race.Event(nil), tr.Events[:500]...)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	id := sess.ID
	srv.Shutdown()

	srv2 := New(Config{DataDir: dir, Tracer: tracer})
	defer srv2.Close()
	n, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}

	var root tracing.SpanData
	var found bool
	for _, sd := range tracer.Snapshot() {
		if sd.Name == "raced.recover" && sd.Root {
			root, found = sd, true
		}
	}
	if !found {
		t.Fatal("no raced.recover root span recorded")
	}
	spans := spansByName(t, tracer, root.TraceID)
	sessSpans := spans["raced.recover.session"]
	if len(sessSpans) != 1 || sessSpans[0].Parent != root.SpanID {
		t.Fatalf("raced.recover.session: %+v", sessSpans)
	}
	replays := spans["raced.journal.replay"]
	if len(replays) != 1 || replays[0].Parent != sessSpans[0].SpanID {
		t.Fatalf("raced.journal.replay: %+v", replays)
	}
	var events string
	for _, a := range replays[0].Attrs {
		if a.Key == "events" {
			events = a.Value
		}
	}
	if events != "500" {
		t.Errorf("replay events attr = %q, want 500", events)
	}
	if _, ok := srv2.Session(id); !ok {
		t.Fatalf("session %s not live after recovery", id)
	}
}

// TestTracingPreservesReports: enabling tracing must not perturb analysis —
// the full 15-cell Table 1 fan-out reports byte-identical with and without
// a tracer on both ends.
func TestTracingPreservesReports(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(400000, 7)

	run := func(tracer *tracing.Tracer) []byte {
		t.Helper()
		_, addr := startTCP(t, Config{Tracer: tracer})
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if tracer != nil {
			client.SetTracer(tracer)
		}
		sess, err := client.Open(SessionConfig{Analyses: names})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.FeedBatch(tr.Events); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		doc, err := sess.CloseJSON()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	plain := run(nil)
	traced := run(tracing.New(tracing.Options{Service: "raced", Seed: 9}))
	if !bytes.Equal(plain, traced) {
		t.Errorf("report changed under tracing\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	if !json.Valid(traced) {
		t.Error("traced report is not valid JSON")
	}
}
