package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
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

// TestHTTPAPI drives the HTTP surface end to end against a session the wire
// feeds: the listing, live races, the finished report, abort, metrics and
// health. HTTP opens and feeds nothing: POST /sessions and the per-session
// feed routes answer 404 or 405.
func TestHTTPAPI(t *testing.T) {
	s, addr := startTCP(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(method, path string, wantStatus int, v any) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: %d %s, want %d", method, path, resp.StatusCode, body.String(), wantStatus)
		}
		if v != nil {
			if err := json.Unmarshal(body.Bytes(), v); err != nil {
				t.Fatal(err)
			}
		}
		return body.Bytes()
	}
	listed := func(id string) SessionStatus {
		t.Helper()
		var list struct{ Sessions []SessionStatus }
		do("GET", "/sessions", http.StatusOK, &list)
		for _, st := range list.Sessions {
			if st.ID == id {
				return st
			}
		}
		t.Fatalf("GET /sessions does not list %s: %+v", id, list.Sessions)
		return SessionStatus{}
	}

	for _, path := range []string{"/sessions", "/sessions/x/events", "/sessions/x/flush", "/sessions/x/close"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s answered %d, want 404 or 405: the wire opens and feeds sessions", path, resp.StatusCode)
		}
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Open(SessionConfig{Analyses: []string{"ST-WDC", "FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	tr := writeWriteRace()
	if err := rs.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := listed(rs.ID()); st.State != "streaming" || st.Events != uint64(tr.Len()) {
		t.Fatalf("listing of a flushed live session = %+v, want streaming at %d events", st, tr.Len())
	}

	var live struct {
		Fed   uint64          `json:"fed"`
		Races []race.RaceInfo `json:"races"`
	}
	do("GET", "/sessions/"+rs.ID()+"/races", http.StatusOK, &live)
	if live.Fed != uint64(tr.Len()) || len(live.Races) != 2 || live.Races[0].Analysis != "ST-WDC" {
		t.Fatalf("live races = %+v", live)
	}

	var doc struct {
		Analyses []struct {
			Analysis string `json:"analysis"`
			Dynamic  int    `json:"dynamic"`
		} `json:"analyses"`
	}
	closed, err := rs.CloseJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(closed, &doc); err != nil || len(doc.Analyses) != 2 || doc.Analyses[0].Dynamic != 1 {
		t.Fatalf("close report = %+v, %v", doc, err)
	}

	// After close the session no longer holds a pool slot, but its report
	// stays queryable: GET /sessions/{id}/races now serves the canonical
	// report JSON, the very bytes the close reply carried.
	if archived := do("GET", "/sessions/"+rs.ID()+"/races", http.StatusOK, nil); !bytes.Equal(archived, closed) {
		t.Fatalf("archived report = %s, want the close reply %s", archived, closed)
	}
	if st := listed(rs.ID()); st.State != "finished" || st.Races != doc.Analyses[0].Dynamic {
		t.Fatalf("listing of a closed session = %+v, want finished with the report's %d races", st, doc.Analyses[0].Dynamic)
	}

	// DELETE aborts a live session, whoever drives it, and knows no other.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	doomed, err := c2.Open(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	do("DELETE", "/sessions/"+doomed.ID(), http.StatusNoContent, nil)
	if st := listed(doomed.ID()); st.State != "failed" {
		t.Fatalf("listing of an aborted session = %+v, want failed", st)
	}
	do("DELETE", "/sessions/"+doomed.ID(), http.StatusNotFound, nil)

	// JSON /metrics is the registry snapshot under canonical names only.
	var metrics map[string]any
	do("GET", "/metrics", http.StatusOK, &metrics)
	if metrics["raced_events_analyzed_total"] != float64(tr.Len()) || metrics["raced_races_total"] != float64(2) {
		t.Fatalf("metrics = %+v", metrics)
	}
	if _, ok := metrics["events_total"]; ok {
		t.Error("legacy events_total alias still served")
	}
	var health struct {
		OK bool `json:"ok"`
	}
	do("GET", "/healthz", http.StatusOK, &health)
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
	if err := eng.FeedBatch(tr.Events); err != nil {
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

// TestIllFormedStreamIsBadRequest: a stream the checker refuses, {T0 rel
// m3; T1 rd x1}, is the client's input, not a server fault. POST /ingest,
// whose body is the stream, answers it with 400 and the checker's error,
// under the error code its row has always had; so does GET
// /sessions/{id}/races on the session a wire client poisoned with it.
func TestIllFormedStreamIsBadRequest(t *testing.T) {
	s, addr := startTCP(t, Config{IdleTimeout: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	evs := []race.Event{{T: 0, Op: race.OpRelease, Targ: 3}, {T: 1, Op: race.OpRead, Targ: 1}}
	tr := &race.Trace{Events: evs}
	want := race.CheckTrace(tr).Error()
	refused := func(route string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		if code := resp.Header.Get(wire.ErrorCodeHeader); resp.StatusCode != http.StatusBadRequest ||
			code != string(wire.CodeInternal) || !strings.Contains(msg.String(), want) {
			t.Errorf("%s answered %d, code %q, %q; want 400, code %q and %q",
				route, resp.StatusCode, code, strings.TrimSpace(msg.String()), wire.CodeInternal, want)
		}
	}

	var bin bytes.Buffer
	if err := race.WriteTrace(&bin, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest?analysis=ST-WDC", "application/octet-stream", &bin)
	refused("POST /ingest", resp, err)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Open(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.FeedBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := rs.Flush(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("flush after the stream = %v, want the checker's error", err)
	}
	resp, err = http.Get(ts.URL + "/sessions/" + rs.ID() + "/races")
	refused("GET /sessions/{id}/races", resp, err)
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

// TestSessionConfigJSON pins the session config's JSON — the Hello payload
// and a journal's config — byte for byte: three fields, each omitted at its
// zero value.
func TestSessionConfigJSON(t *testing.T) {
	for _, tc := range []struct {
		cfg  SessionConfig
		want string
	}{
		{SessionConfig{}, `{}`},
		{SessionConfig{Analyses: []string{"ST-WDC"}}, `{"analyses":["ST-WDC"]}`},
		{SessionConfig{Analyses: []string{"FTO-HB", "ST-DC"}, Vindicate: true, Parallelism: 2},
			`{"analyses":["FTO-HB","ST-DC"],"vindicate":true,"parallelism":2}`},
	} {
		got, err := json.Marshal(tc.cfg)
		if err != nil || string(got) != tc.want {
			t.Errorf("json.Marshal(%+v) = %s, %v; want %s", tc.cfg, got, err, tc.want)
		}
		var back SessionConfig
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil || !reflect.DeepEqual(back, tc.cfg) {
			t.Errorf("json.Unmarshal(%s) = %+v, %v; want %+v", tc.want, back, err, tc.cfg)
		}
	}
}

// retiredConfig is a session config as an old client spelled it, with the
// pre-sizing hints and pipeline batch size a session config no longer has,
// at hostile values: absurd and negative hints, a batch of 2^40 events.
const retiredConfig = `{"parallelism":2,"batch_size":1099511627776,"hints":{"Threads":1073741824,` +
	`"Vars":-5,"Locks":1073741824,"Volatiles":-1,"Classes":1073741824,"Events":1099511627776}}`

// TestRetiredConfigFieldsIgnored: a session config that carries the retired
// "hints" and "batch_size" fields opens through a wire Hello, and recovers
// from a session.json on a durable server; each session finds the race and
// closes to the report the same stream earns under {}.
func TestRetiredConfigFieldsIgnored(t *testing.T) {
	tr := writeWriteRace()
	recs := wire.AppendEvents(nil, tr.Events)
	ref := New(Config{})
	defer ref.Close()
	sess, err := ref.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Close()
	if err != nil || rep.Dynamic() != 1 {
		t.Fatalf("the stream under {} closed to %v, %v; want one race", rep, err)
	}
	want, _ := json.Marshal(rep)
	same := func(t *testing.T, door string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s closed to %s, want the report under {}: %s", door, got, want)
		}
	}

	t.Run("wire", func(t *testing.T) {
		_, addr := startTCP(t, Config{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		hello := fmt.Sprintf(`{"proto":%d,"session":%s}`, wire.Proto, retiredConfig)
		for _, f := range []struct {
			ty      wire.Type
			payload []byte
		}{{wire.THello, []byte(hello)}, {wire.TEvents, recs}, {wire.TEOF, nil}} {
			if err := wire.WriteFrame(conn, f.ty, f.payload); err != nil {
				t.Fatal(err)
			}
		}
		br := bufio.NewReader(conn)
		for _, wantTy := range []wire.Type{wire.TAck, wire.TReport} {
			ty, payload, err := wire.ReadFrame(br)
			if err != nil || ty != wantTy {
				t.Fatalf("answered %v (%s), %v; want %v", ty, payload, err, wantTy)
			}
			if ty == wire.TReport {
				same(t, "a wire Hello", payload)
			}
		}
	})

	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		s1 := New(Config{DataDir: dir, IdleTimeout: -1})
		sess, err := s1.OpenSession(SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		s1.Shutdown() // the session stays open on disk
		meta := fmt.Sprintf(`{"id":%q,"config":%s,"state":"open"}`, sess.ID, retiredConfig)
		if err := os.WriteFile(filepath.Join(dir, "sessions", sess.ID, "session.json"), []byte(meta), 0o666); err != nil {
			t.Fatal(err)
		}
		s2 := New(Config{DataDir: dir, IdleTimeout: -1})
		defer s2.Close()
		if n, err := s2.Recover(); n != 1 || err != nil {
			t.Fatalf("recovered %d sessions, %v; want 1", n, err)
		}
		live, ok := s2.Session(sess.ID)
		if !ok {
			t.Fatalf("session %s not recovered", sess.ID)
		}
		rep, err := live.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rep)
		same(t, "a recovered session.json", got)
	})
}
