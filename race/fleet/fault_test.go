package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/race/server"
)

// TestRouterErrorsJoinTheTable: the router keeps no classifier — its own
// sentinels resolve, through server.Classify, to the row of the server
// condition they wrap, so the wire code a client gets, the failover and the
// redirect decisions all read the one table.
func TestRouterErrorsJoinTheTable(t *testing.T) {
	for _, tc := range []struct {
		err         error
		code        wire.ErrCode
		unreachable bool // mark the backend down, fail over
		redirect    bool // mid-stream: answer the client with a Redirect
	}{
		{ErrBackendDraining, wire.CodeDraining, false, false},
		{ErrNoBackends, wire.CodeFull, false, false},
		{fmt.Errorf("%w: b1 (killed)", ErrBackendDown), wire.CodeInternal, true, true},
		{server.RemoteFault(wire.CodeSuspended, "moved"), wire.CodeSuspended, false, true},
		{server.RemoteFault(wire.CodeTimeout, "stalled"), wire.CodeTimeout, false, true},
		{server.RemoteFault(wire.CodeUnknownSession, "who?"), wire.CodeUnknownSession, false, false},
		{server.RemoteFault(wire.CodeIO, "disk"), wire.CodeIO, false, false},
		{nil, wire.CodeInternal, false, false},
	} {
		c := server.Classify(tc.err)
		if c.WireCode() != tc.code || isUnreachable(tc.err) != tc.unreachable || c.Resumable() != tc.redirect {
			t.Errorf("%v: code %q unreachable %v redirect %v, want %q %v %v", tc.err,
				c.WireCode(), isUnreachable(tc.err), c.Resumable(), tc.code, tc.unreachable, tc.redirect)
		}
	}
	if !isUnknownSession(server.RemoteFault(wire.CodeUnknownSession, "who?")) || isUnknownSession(ErrNoBackends) {
		t.Error("isUnknownSession does not read the code column")
	}
}

// TestHealthFlapDamping: a down backend does not return to rotation on a
// single good probe — it must earn threshold consecutive successes, a
// failure in between resets the streak, and the recovery fires onRecover.
func TestHealthFlapDamping(t *testing.T) {
	boom := syscall.ECONNREFUSED
	h := newHealthMonitor([]string{"b"}, time.Second)
	recovered := 0
	h.onRecover = func(name string) { recovered++ }

	h.observe("b", boom)
	h.observe("b", boom)
	if h.routable("b") {
		t.Fatal("backend routable after threshold failures")
	}
	h.observe("b", nil)
	if h.routable("b") {
		t.Fatal("down backend recovered on a single good probe")
	}
	h.observe("b", boom) // flap: the streak resets
	h.observe("b", nil)
	if h.routable("b") {
		t.Fatal("recovery streak survived an interleaved failure")
	}
	h.observe("b", nil)
	if !h.routable("b") {
		t.Fatal("backend not routable after threshold consecutive successes")
	}
	if recovered != 1 {
		t.Fatalf("onRecover fired %d times, want 1", recovered)
	}

	// A recently-flapping backend pays the penalty: after another trip,
	// threshold successes are no longer enough.
	h.markDown("b")
	for i := 0; i < probeThreshold; i++ {
		h.observe("b", nil)
	}
	if !h.routable("b") {
		t.Fatal("second recovery blocked (only one recent recovery; penalty needs two)")
	}
	h.markDown("b")
	for i := 0; i < probeThreshold; i++ {
		h.observe("b", nil)
	}
	if h.routable("b") {
		t.Fatal("flapping backend recovered without the damping penalty")
	}
	for i := 0; i < probeThreshold*(flapPenalty-1); i++ {
		h.observe("b", nil)
	}
	if !h.routable("b") {
		t.Fatal("flapping backend never recovered despite sustained good probes")
	}
}

// TestProbeDoesNotUndoAMarkDown: a good probe racing a failed call's
// mark-down leaves the backend down — one good probe is no recovery, in
// whichever order the two land. An observe that loads the state and stores
// "up" outside the record's lock fails here under -race within a few
// thousand iterations.
func TestProbeDoesNotUndoAMarkDown(t *testing.T) {
	for i := 0; i < 20000; i++ {
		h := newHealthMonitor([]string{"b"}, time.Second)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h.observe("b", nil)
		}()
		close(start)
		h.markDown("b")
		wg.Wait()
		if st := h.status("b"); st != "down" {
			t.Fatalf("iteration %d: a good probe racing a mark-down left the backend %q", i, st)
		}
	}
}

// TestPartialPartitionRoutesAround: a backend whose wire operations fail
// while its health probes still pass (the nastiest partial partition) is
// routed around — every session lands on the healthy backend, and the sick
// one is offered a session again only after it has earned a recovery with
// consecutive good probes, so its failed opens number at most one more than
// its recoveries.
func TestPartialPartitionRoutesAround(t *testing.T) {
	srvA := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1})
	srvB := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1})
	var failedOpens uint64 // written by this goroutine alone: only probes run elsewhere
	sick := NewFaultBackend(NewLocal("a-backend", srvA), func(op string) error {
		switch op {
		case "open":
			failedOpens++
			return syscall.ECONNREFUSED
		case "resume", "feed", "flush", "close":
			return syscall.ECONNREFUSED
		}
		return nil // probes and admin still pass
	})
	healthy := NewLocal("b-backend", srvB)

	rt, err := New([]Backend{sick, healthy}, Options{
		ProbeInterval: time.Hour, // the test plays the probe rounds
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// A passing probe round before every open: the only way back from the
	// mark-down the first failed open causes.
	for i := 0; i < 24; i++ {
		rt.health.observe("a-backend", nil)
		sess, b, err := rt.routeOpen(t.Context(), NewSessionID(), server.SessionConfig{Analyses: []string{"FTO-HB"}})
		if err != nil {
			t.Fatalf("open %d failed: %v", i, err)
		}
		if b.Name() != "b-backend" {
			t.Fatalf("open %d landed on the partitioned backend", i)
		}
		sess.Release()
	}
	if recovered := rt.metrics.recoveries["a-backend"].Value(); failedOpens > recovered+1 {
		t.Errorf("the partitioned backend failed %d opens with %d recoveries: it was offered sessions while marked down", failedOpens, recovered)
	}
	if got := rt.metrics.sessionsRouted["b-backend"].Value(); got != 24 {
		t.Errorf("healthy backend served %d sessions, want 24", got)
	}
}

// TestEveryBackendCallMarksADeadBackendDown: whichever Backend call finds
// its backend unreachable — a placement, a resume, the home's suspend, a
// migration's recover, a session listing, an admin drain — the router marks
// the backend down at once.
func TestEveryBackendCallMarksADeadBackendDown(t *testing.T) {
	cfg := server.SessionConfig{Analyses: []string{"FTO-HB"}}
	rows := map[string]func(t *testing.T, rt *Router, sick, healthy Backend){
		"open": func(t *testing.T, rt *Router, sick, healthy Backend) {
			sess, _, err := rt.routeOpen(t.Context(), idsOwnedBy(rt, sick.Name())(), cfg)
			if err != nil {
				t.Fatalf("open did not fail over: %v", err)
			}
			sess.Release()
		},
		"resume": func(t *testing.T, rt *Router, sick, healthy Backend) {
			rt.routeResume(t.Context(), "nosuch")
		},
		"suspend": func(t *testing.T, rt *Router, sick, healthy Backend) {
			if err := rt.MigrateSession(t.Context(), "nosuch", sick.Name()); !isUnreachable(err) {
				t.Fatalf("migrate to a home that cannot suspend answered %v", err)
			}
		},
		"recover": func(t *testing.T, rt *Router, sick, healthy Backend) {
			sess, err := healthy.Open(t.Context(), "moving", cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess.Release() // durable: stays live, ready to be sealed
			if err := rt.MigrateSession(t.Context(), "moving", sick.Name()); !isUnreachable(err) {
				t.Fatalf("migrate to a home that cannot recover answered %v", err)
			}
		},
		"sessions": func(t *testing.T, rt *Router, sick, healthy Backend) {
			rt.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/sessions", nil))
		},
		"drain": func(t *testing.T, rt *Router, sick, healthy Backend) {
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/backends/"+sick.Name()+"/drain", nil))
			if rec.Code != http.StatusBadGateway {
				t.Fatalf("drain of an unreachable backend answered %d", rec.Code)
			}
		},
	}
	for op, drive := range rows {
		t.Run(op, func(t *testing.T) {
			var backends []Backend
			for _, name := range []string{"a-backend", "b-backend"} {
				srv := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1})
				t.Cleanup(func() { srv.Close() })
				backends = append(backends, NewLocal(name, srv))
			}
			sick := NewFaultBackend(backends[0], func(o string) error {
				if o == op {
					return syscall.ECONNREFUSED
				}
				return nil
			})
			rt, err := New([]Backend{sick, backends[1]}, Options{ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			if st := rt.health.status(sick.Name()); st != "up" {
				t.Fatalf("%s starts %q", sick.Name(), st)
			}
			drive(t, rt, sick, backends[1])
			if st := rt.health.status(sick.Name()); st != "down" {
				t.Errorf("after a failed %s the backend is %q, want down", op, st)
			}
		})
	}
}

// TestResumeIDIsCheckedBeforeAnyPath: an id outside the session-id grammar
// is no session — answered unknown-session before the router walks the
// ring, takes a lock or builds a path from it. "../extra" once made the
// router copy the second arc's <data-dir>/extra tree into the first's and
// leave an empty sessions/.importing-.. behind.
func TestResumeIDIsCheckedBeforeAnyPath(t *testing.T) {
	rt, locals, api, wireAddr := fleetOf(t, 2, 0, Options{})
	const id = "../extra"
	second := rt.backends[rt.ring.sequence(id)[1]]
	if err := os.MkdirAll(filepath.Join(second.DataDir(), "extra", "sub"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(second.DataDir(), "extra", "sub", "f"), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	c, err := server.Dial(wireAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Resume(t.Context(), id); server.Classify(err).Code != wire.CodeUnknownSession {
		t.Errorf("resume %q answered %v, want unknown-session", id, err)
	}
	if status, _, doc := httpDo(t, api, "POST", "/admin/sessions/..%2Fextra/migrate?to="+locals[0].Name(), nil); status != http.StatusNotFound {
		t.Errorf("migrate %q answered %d %s, want 404", id, status, doc)
	}
	if n := rt.metrics.migStarted.Value(); n != 0 {
		t.Errorf("%d migrations started for %q, want 0", n, id)
	}
	for _, b := range locals {
		entries, _ := os.ReadDir(filepath.Join(b.DataDir(), "sessions"))
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".importing-") {
				t.Errorf("%s left %s behind", b.Name(), e.Name())
			}
		}
	}
	if _, err := os.Stat(filepath.Join(second.DataDir(), "extra", "sub", "f")); err != nil {
		t.Errorf("the tree the id pointed at was touched: %v", err)
	}
}

// TestSessionLocksDoNotOutliveTheirHolders: a resume of an id no backend
// knows takes the id's routing lock to look again, and gives its entry back
// — also when another resume of the same id holds or waits for it.
func TestSessionLocksDoNotOutliveTheirHolders(t *testing.T) {
	rt, _, _, _ := fleetOf(t, 2, 0, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 1,000 distinct ids, each resumed by two of the four workers.
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("nosuch%04d", (w*250+i)%1000)
				if _, _, err := rt.open(t.Context(), &server.HelloPayload{Resume: id}); !isUnknownSession(err) {
					t.Errorf("resume of unknown id %s answered %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(rt.sessLocks); n != 0 {
		t.Errorf("%d session locks left after resumes of 1,000 unknown ids, want 0", n)
	}
}
