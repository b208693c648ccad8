package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
	"repro/race"
)

// writeWriteRace is a minimal two-thread trace with one true race.
func writeWriteRace() *race.Trace {
	b := race.NewBuilder()
	b.Fork("T0", "T1")
	b.Fork("T0", "T2")
	b.Write("T1", "x")
	b.Write("T2", "x")
	b.Join("T0", "T1")
	b.Join("T0", "T2")
	return b.Build()
}

func TestSessionLifecycle(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sess, err := s.OpenSession(SessionConfig{Analyses: []string{"ST-WDC", "FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	tr := writeWriteRace()
	if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Fed(); got != uint64(tr.Len()) {
		t.Fatalf("Fed = %d, want %d", got, tr.Len())
	}
	// The sibling write-write race is unordered under every relation, so
	// both analyses catch it: two online detections, one per analysis.
	if n := len(sess.Races()); n != 2 {
		t.Fatalf("live race snapshot has %d races, want 2", n)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ST-WDC", "FTO-HB"} {
		sub, _ := rep.ByAnalysis(name)
		if sub.Dynamic() != 1 {
			t.Fatalf("%s dynamic = %d, want 1", name, sub.Dynamic())
		}
	}
	if s.ActiveSessions() != 0 {
		t.Fatalf("session still registered after Close")
	}
	if m := &s.metrics; m.analyzed.Value() != uint64(tr.Len()) || m.races.Value() != 2 || m.closed.Value() != 1 {
		t.Fatalf("metrics: analyzed %d, races %d, closed %d", m.analyzed.Value(), m.races.Value(), m.closed.Value())
	}

	// Close is idempotent and Feed after Close errors.
	if _, err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sess.Feed([]race.Event{{T: 0, Op: trace.OpRead}}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Feed after Close = %v, want ErrSessionClosed", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	s := New(Config{MaxSessions: 2})
	defer s.Close()
	s1, err := s.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSession(SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSession(SessionConfig{}); !errors.Is(err, ErrServerFull) {
		t.Fatalf("third session: %v, want ErrServerFull", err)
	}
	if _, err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSession(SessionConfig{}); err != nil {
		t.Fatalf("after freeing a slot: %v", err)
	}
	if got := s.metrics.rejected[rejectFull].Value(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestBadConfigRejected(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.OpenSession(SessionConfig{Analyses: []string{"NO-SUCH"}}); err == nil {
		t.Fatal("unknown analysis accepted")
	}
	if n := s.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions leaked by failed open", n)
	}
}

func TestIdleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{IdleTimeout: time.Minute, now: func() time.Time { return now }})
	defer s.Close()
	idle, err := s.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := s.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	busy.Feed([]race.Event{{T: 0, Op: trace.OpWrite, Targ: 0}}) // touches lastActive at +2m
	now = now.Add(30 * time.Second)
	if n := s.EvictIdle(now); n != 1 {
		t.Fatalf("evicted %d sessions, want 1 (the idle one)", n)
	}
	if err := idle.Err(); !errors.Is(err, ErrEvicted) {
		t.Fatalf("idle session error = %v, want ErrEvicted", err)
	}
	if err := busy.Err(); err != nil {
		t.Fatalf("busy session evicted: %v", err)
	}
	if _, err := busy.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.evicted.Value(); got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}
}

// panicSink explodes after a set number of batches — the poisoned-engine
// stand-in used to prove isolation.
type panicSink struct{ after int }

func (p *panicSink) FeedBatch(evs []race.Event) error {
	p.after--
	if p.after < 0 {
		panic("analysis metadata corrupted")
	}
	return nil
}
func (p *panicSink) Sync() error                  { return nil }
func (p *panicSink) Close() (*race.Report, error) { panic("poisoned at close") }
func (p *panicSink) Abort()                       { panic("poisoned at abort") }

// poisonedFactory routes sessions whose config asks for the marker
// analysis to a panicking sink, everything else to the real engine.
func poisonedFactory(cfg SessionConfig, onRace func(race.RaceInfo), journaled bool) (engineSink, error) {
	if len(cfg.Analyses) == 1 && cfg.Analyses[0] == "PANIC" {
		return &panicSink{after: 1}, nil
	}
	return newEngineSink(cfg, onRace, journaled, nil)
}

func TestPanicIsolation(t *testing.T) {
	s := New(Config{newSink: poisonedFactory})
	defer s.Close()
	bad, err := s.OpenSession(SessionConfig{Analyses: []string{"PANIC"}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}

	tr := writeWriteRace()
	// First batch is absorbed; the second panics the sink. The session must
	// poison, not the process, and producers must never block.
	for i := 0; i < 5; i++ {
		if err := bad.Feed([]race.Event{{T: 0, Op: trace.OpWrite, Targ: 0}}); err != nil {
			break
		}
	}
	if err := bad.Flush(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned session Flush = %v, want panic error", err)
	}
	if _, err := bad.Close(); err == nil {
		t.Fatal("poisoned session Close succeeded")
	}

	// The healthy tenant is untouched.
	if err := good.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	rep, err := good.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dynamic() != 1 {
		t.Fatalf("healthy session found %d races, want 1", rep.Dynamic())
	}
	if got := s.metrics.failed.Value(); got == 0 {
		t.Fatal("failed counter not incremented")
	}
}

func TestIllFormedStreamPoisonsSessionOnly(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sess, err := s.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Release of an unheld lock: the engine's checker rejects it.
	sess.Feed([]race.Event{{T: 0, Op: trace.OpRelease, Targ: 0}})
	if err := sess.Flush(); err == nil {
		t.Fatal("ill-formed stream not reported at flush")
	}
	if _, err := sess.Close(); err == nil {
		t.Fatal("ill-formed session closed cleanly")
	}
	if s.ActiveSessions() != 0 {
		t.Fatal("session leaked")
	}
}

// TestHTTPAPI drives the full REST surface end to end against a generated
// workload: open, stream events, flush, live races, close, metrics.
func TestHTTPAPI(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string, raw []byte) *http.Response {
		t.Helper()
		var rd *bytes.Reader
		if raw != nil {
			rd = bytes.NewReader(raw)
		} else {
			rd = bytes.NewReader([]byte(body))
		}
		resp, err := http.Post(ts.URL+path, "application/octet-stream", rd)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(resp *http.Response, v any) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			var msg bytes.Buffer
			msg.ReadFrom(resp.Body)
			t.Fatalf("%s %s: %s", resp.Request.Method, resp.Request.URL.Path, msg.String())
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}

	var opened struct {
		Session string `json:"session"`
	}
	decode(post("/sessions", `{"analyses":["ST-WDC","FTO-HB"]}`, nil), &opened)
	if opened.Session == "" {
		t.Fatal("no session id")
	}

	tr := writeWriteRace()
	var evbody []byte
	for _, ev := range tr.Events {
		var rec [trace.RecordSize]byte
		trace.PutRecord(rec[:], ev)
		evbody = append(evbody, rec[:]...)
	}
	var fedResp struct {
		Fed uint64 `json:"fed"`
	}
	decode(post("/sessions/"+opened.Session+"/events", "", evbody), &fedResp)
	if fedResp.Fed != uint64(tr.Len()) {
		t.Fatalf("fed %d, want %d", fedResp.Fed, tr.Len())
	}
	decode(post("/sessions/"+opened.Session+"/flush", "", nil), &fedResp)

	var live struct {
		Races []race.RaceInfo `json:"races"`
	}
	resp, err := http.Get(ts.URL + "/sessions/" + opened.Session + "/races")
	if err != nil {
		t.Fatal(err)
	}
	decode(resp, &live)
	if len(live.Races) != 2 || live.Races[0].Analysis != "ST-WDC" {
		t.Fatalf("live races = %+v", live.Races)
	}

	var doc struct {
		Analyses []struct {
			Analysis string `json:"analysis"`
			Dynamic  int    `json:"dynamic"`
		} `json:"analyses"`
	}
	decode(post("/sessions/"+opened.Session+"/close", "", nil), &doc)
	if len(doc.Analyses) != 2 || doc.Analyses[0].Dynamic != 1 {
		t.Fatalf("close report = %+v", doc)
	}

	// After close the session no longer holds a pool slot, but its report
	// stays queryable: GET /sessions/{id}/races now serves the canonical
	// report JSON.
	resp, err = http.Get(ts.URL + "/sessions/" + opened.Session + "/races")
	if err != nil {
		t.Fatal(err)
	}
	var archived struct {
		Analyses []struct {
			Analysis string `json:"analysis"`
			Dynamic  int    `json:"dynamic"`
		} `json:"analyses"`
	}
	decode(resp, &archived)
	if len(archived.Analyses) != 2 || archived.Analyses[0].Dynamic != 1 {
		t.Fatalf("archived report = %+v", archived)
	}

	// JSON /metrics is the registry snapshot under canonical names only.
	var metrics map[string]any
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	decode(resp, &metrics)
	if metrics["raced_events_analyzed_total"] != float64(tr.Len()) || metrics["raced_races_total"] != float64(2) {
		t.Fatalf("metrics = %+v", metrics)
	}
	if _, ok := metrics["events_total"]; ok {
		t.Error("legacy events_total alias still served")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	decode(resp, &health)
	if !health.OK {
		t.Fatal("healthz not ok")
	}
}

// TestHTTPIngestOneShot posts a whole binary trace to /ingest and checks
// the returned report against in-process analysis, byte for byte.
func TestHTTPIngestOneShot(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 1)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest?analysis=FTO-HB,ST-WDC", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("/ingest: %s", got.String())
	}

	eng, err := race.NewEngine(race.WithAnalysisNames("FTO-HB", "ST-WDC"))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got.Bytes()), want) {
		t.Fatalf("/ingest report differs from in-process analysis:\n%s\nvs\n%s", got.String(), want)
	}
}

// TestServerCloseAbortsSessions: shutdown aborts every tenant and refuses
// new ones.
func TestServerCloseAbortsSessions(t *testing.T) {
	s := New(Config{})
	sess, err := s.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Err(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("session error after shutdown = %v", err)
	}
	if _, err := s.OpenSession(SessionConfig{}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("open after shutdown = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestHostileHintsClamped: a tenant cannot pre-allocate the server into
// the ground (or panic it) with absurd or negative capacity hints — they
// are clamped, the session opens, and analysis still works.
func TestHostileHintsClamped(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sess, err := s.OpenSession(SessionConfig{
		Analyses: []string{"ST-WDC"},
		Hints: race.CapacityHints{
			Threads: 1 << 30, Vars: -5, Locks: 1 << 30, Volatiles: -1, Classes: 1 << 30, Events: 1 << 40,
		},
	})
	if err != nil {
		t.Fatalf("hostile hints rejected instead of clamped: %v", err)
	}
	tr := writeWriteRace()
	if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dynamic() != 1 {
		t.Fatalf("clamped session found %d races, want 1", rep.Dynamic())
	}
}
