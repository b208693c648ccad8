package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestValidateSessionID pins the id grammar the fleet router and the wire
// hello rely on: what a caller may choose, and what stays reserved for the
// server's own counter and for in-progress imports.
func TestValidateSessionID(t *testing.T) {
	valid := []string{
		"f0a1b2c3d4e5", // fleet-assigned form
		"a", "A-1", "trace_2026.bin", "x.y-z_0",
		strings.Repeat("k", 64),
		"s",      // bare s is not the reserved pattern
		"s12x",   // reserved pattern is s<digits> only
		"sess-7", // digits after non-digit are fine
	}
	for _, id := range valid {
		if err := ValidateSessionID(id); err != nil {
			t.Errorf("ValidateSessionID(%q) = %v, want ok", id, err)
		}
	}
	invalid := []string{
		"",                      // empty
		strings.Repeat("k", 65), // too long
		".importing-f00",        // dot prefix reserved for staged imports
		"has space", "tab\tid",  // charset
		"slash/id", "dots/../up", // path traversal shapes
		"s0", "s000042", "s99999", // server-assigned form
		"naïve", // non-ASCII
	}
	for _, id := range invalid {
		if err := ValidateSessionID(id); err == nil {
			t.Errorf("ValidateSessionID(%q) = nil, want error", id)
		}
	}
}

// TestOpenSessionWithID: a caller-chosen id round-trips through open,
// lookup, and close; the same id cannot be claimed twice while live
// (ErrIDTaken), and an invalid id never reaches admission.
func TestOpenSessionWithID(t *testing.T) {
	s := New(Config{IdleTimeout: -1})
	defer s.Close()
	cfg := SessionConfig{Analyses: []string{"FTO-HB"}}

	sess, err := s.OpenSessionWithID("f0a1b2c3d4e5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID != "f0a1b2c3d4e5" {
		t.Fatalf("session id %q, want the requested one", sess.ID)
	}
	if got, ok := s.Session("f0a1b2c3d4e5"); !ok || got != sess {
		t.Fatal("lookup by caller-chosen id failed")
	}

	if _, err := s.OpenSessionWithID("f0a1b2c3d4e5", cfg); !errors.Is(err, ErrIDTaken) {
		t.Fatalf("duplicate id: err = %v, want ErrIDTaken", err)
	}
	if _, err := s.OpenSessionWithID("s000001", cfg); err == nil {
		t.Fatal("reserved server-assigned id was accepted")
	}

	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Even closed, the id stays claimed: the finished archive serves the
	// report under it, and a new tenant reusing it would splice histories.
	if _, err := s.OpenSessionWithID("f0a1b2c3d4e5", cfg); !errors.Is(err, ErrIDTaken) {
		t.Fatalf("reopening a finished id: err = %v, want ErrIDTaken", err)
	}
}

// TestDrainRefusesNewSessions: Drain flips admission off (ErrDraining for
// both open paths) while sessions already streaming run to completion.
func TestDrainRefusesNewSessions(t *testing.T) {
	s := New(Config{IdleTimeout: -1})
	defer s.Close()
	cfg := SessionConfig{Analyses: []string{"FTO-HB"}}

	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 5, Threads: 4, Chans: 2, MaxCap: 2, Locks: 2, Vars: 4, Events: 1000,
	})
	want := batchReport(t, tr, cfg.Analyses)

	sess, err := s.OpenSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(tr.Events) / 2
	feedChunks(t, sess, tr, 0, mid, 97)

	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := s.OpenSession(cfg); !errors.Is(err, ErrDraining) {
		t.Fatalf("OpenSession while draining: err = %v, want ErrDraining", err)
	}
	if _, err := s.OpenSessionWithID("fdeadbeef000", cfg); !errors.Is(err, ErrDraining) {
		t.Fatalf("OpenSessionWithID while draining: err = %v, want ErrDraining", err)
	}

	// The in-flight session is untouched by the drain.
	feedChunks(t, sess, tr, mid, len(tr.Events), 97)
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	if !bytes.Equal(got, want) {
		t.Error("report from session that streamed across Drain differs from batch Analyze")
	}
}

// TestHealthzReadiness: the /healthz document a fleet router probes —
// 200 with pool occupancy while serving, Full when at the session cap,
// 503 once draining, and a writability verdict for the durable data dir.
func TestHealthzReadiness(t *testing.T) {
	s := New(Config{DataDir: t.TempDir(), MaxSessions: 1, IdleTimeout: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (int, healthzStatus) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st healthzStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	code, st := get()
	if code != http.StatusOK || !st.OK {
		t.Fatalf("fresh server: healthz %d %+v, want 200 ok", code, st)
	}
	if st.DataDirWritable == nil || !*st.DataDirWritable {
		t.Fatalf("durable server did not report a writable data dir: %+v", st)
	}
	if st.Full || st.ActiveSessions != 0 || st.MaxSessions != 1 {
		t.Fatalf("fresh pool occupancy wrong: %+v", st)
	}

	sess, err := s.OpenSession(SessionConfig{Analyses: []string{"FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	code, st = get()
	if code != http.StatusOK || !st.Full || st.ActiveSessions != 1 {
		t.Fatalf("full pool: healthz %d %+v, want 200 with full=true", code, st)
	}
	sess.Close()

	s.Drain()
	code, st = get()
	if code != http.StatusServiceUnavailable || st.OK || !st.Draining {
		t.Fatalf("draining: healthz %d %+v, want 503 with draining=true", code, st)
	}
}

// TestHTTPAdminSuspendRecoverRoundTrip drives one migration leg over the
// admin API alone: suspend seals the live session (it leaves the table, its
// slot frees), recover replays the sealed journal back into a live session
// on the same server, and the stream finishes byte-identical to batch
// Analyze.
func TestHTTPAdminSuspendRecoverRoundTrip(t *testing.T) {
	names := []string{"ST-WDC", "FTO-HB"}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 13, Threads: 5, Chans: 3, MaxCap: 2, Locks: 2, Vars: 5, Events: 2000,
	})
	want := batchReport(t, tr, names)

	s := New(Config{DataDir: t.TempDir(), IdleTimeout: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, wantCode int) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
		var doc map[string]any
		json.NewDecoder(resp.Body).Decode(&doc)
		return doc
	}

	sess, err := s.OpenSession(SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID
	mid := len(tr.Events) / 2
	feedChunks(t, sess, tr, 0, mid, 151)

	doc := post("/admin/sessions/"+id+"/suspend", http.StatusOK)
	if fed, _ := doc["fed"].(float64); fed != float64(mid) {
		t.Fatalf("suspend acked %v events, want %d", doc["fed"], mid)
	}
	if _, ok := s.Session(id); ok {
		t.Fatal("suspended session still live")
	}
	// The stale handle answers with the handoff error, not a generic close.
	if err := sess.Feed(tr.Events[mid : mid+1]); !errors.Is(err, ErrSuspended) {
		t.Fatalf("feed on suspended handle: err = %v, want ErrSuspended", err)
	}
	post("/admin/sessions/"+id+"/suspend", http.StatusNotFound) // idempotence boundary

	doc = post("/admin/sessions/"+id+"/recover", http.StatusOK)
	if fed, _ := doc["fed"].(float64); fed != float64(mid) {
		t.Fatalf("recover replayed %v events, want %d", doc["fed"], mid)
	}
	sess2, ok := s.Session(id)
	if !ok {
		t.Fatal("recovered session not live")
	}
	feedChunks(t, sess2, tr, mid, len(tr.Events), 151)
	rep, err := sess2.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	if !bytes.Equal(got, want) {
		t.Error("suspend/recover round-trip report differs from batch Analyze")
	}
}

// TestReliableClientSurvivesServerRestart is the retry satellite's
// acceptance: a ReliableSession streaming to a durable server rides out a
// full server restart on the same address — reconnect with backoff, resume
// at the acked offset, replay the unacknowledged suffix — and the report
// stays byte-identical to batch Analyze.
func TestReliableClientSurvivesServerRestart(t *testing.T) {
	names := []string{"ST-WDC", "ST-DC", "FTO-HB"}
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(40000, 9)
	want := batchReport(t, tr, names)
	dir := t.TempDir()

	s1, lis1, addr := startDurableTCP(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess, err := OpenReliable(ctx, addr, SessionConfig{Analyses: names},
		WithRetry(RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}

	// The resume point sits inside a client batch, so the replayed suffix
	// does not start on a frame boundary.
	mid := len(tr.Events) / 2
	if mid%DefaultClientBatch == 0 {
		mid++
	}
	if err := sess.FeedBatch(tr.Events[:mid]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sess.acked; got != uint64(mid) {
		t.Fatalf("flush acked %d, want %d", got, mid)
	}

	// Kill the server: listener closed, sessions quiesced, journals sealed.
	lis1.Close()
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Restart on the SAME address so the client's stored endpoint works —
	// the process restart a systemd unit or container supervisor performs.
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	t.Cleanup(func() { lis2.Close() })
	s2 := New(Config{DataDir: dir, IdleTimeout: -1})
	t.Cleanup(func() { s2.Close() })
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	go s2.ServeTCP(lis2)

	// The client has no idea a restart happened: the next ops hit the dead
	// connection, reconnect, resume, replay, and carry on.
	if err := sess.FeedBatch(tr.Events[mid:]); err != nil {
		t.Fatal(err)
	}
	got, err := sess.CloseJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restart-surviving report differs from batch Analyze\n--- reliable ---\n%s\n--- batch ---\n%s", got, want)
	}
}

// TestReliableRetryBounded: with retries exhausted against a dead address
// the client fails with the last transport error instead of hanging.
func TestReliableRetryBounded(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err = OpenReliable(ctx, addr, SessionConfig{Analyses: []string{"FTO-HB"}},
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	if err == nil {
		t.Fatal("OpenReliable against a dead address succeeded")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("bounded retry took %v", d)
	}
}
