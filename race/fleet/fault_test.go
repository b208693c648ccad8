package fleet

import (
	"fmt"
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
		unreachable bool // mark the backend down, fail over, count toward the breaker
		redirect    bool // mid-stream: answer the client with a Redirect
	}{
		{ErrBackendDraining, wire.CodeDraining, false, false},
		{ErrNoBackends, wire.CodeFull, false, false},
		{fmt.Errorf("%w: b1 (killed)", ErrBackendDown), wire.CodeInternal, true, true},
		{fmt.Errorf("%w: b1", ErrCircuitOpen), wire.CodeInternal, true, true},
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

// TestBreakerStateMachine drives one breaker through its full cycle:
// closed → open after threshold unreachable failures → half-open after the
// cooldown (admitting exactly one trial) → reopened by a failed trial,
// closed by a good one.
func TestBreakerStateMachine(t *testing.T) {
	refused := syscall.ECONNREFUSED
	br := newBreaker(3, 20*time.Millisecond)

	for i := 0; i < 2; i++ {
		if !br.allow() {
			t.Fatalf("breaker refused call %d while closed", i)
		}
		if br.record(refused) {
			t.Fatalf("breaker opened after %d failures (threshold 3)", i+1)
		}
	}
	if !br.allow() {
		t.Fatal("breaker refused the third call while still closed")
	}
	if !br.record(refused) {
		t.Fatal("breaker did not open at the threshold")
	}
	if br.allow() {
		t.Fatal("open breaker admitted a call before the cooldown")
	}

	time.Sleep(25 * time.Millisecond)
	if !br.allow() {
		t.Fatal("breaker refused the half-open trial after the cooldown")
	}
	if br.allow() {
		t.Fatal("half-open breaker admitted a second concurrent call")
	}
	if !br.record(refused) {
		t.Fatal("failed half-open trial did not reopen the breaker")
	}
	if br.allow() {
		t.Fatal("reopened breaker admitted a call before the cooldown")
	}

	time.Sleep(25 * time.Millisecond)
	if !br.allow() {
		t.Fatal("breaker refused the second half-open trial")
	}
	if br.record(nil) {
		t.Fatal("successful trial reported as an open transition")
	}
	if !br.allow() {
		t.Fatal("breaker not closed after a successful trial")
	}

	// Session-level rejections are proof of life, not unreachability.
	br.record(refused)
	br.record(refused)
	if br.record(server.ErrServerFull) {
		t.Fatal("a session-level rejection tripped the breaker")
	}
	if !br.allow() {
		t.Fatal("breaker open after a session-level rejection reset it")
	}
}

// TestHealthFlapDamping: a down backend does not return to rotation on a
// single good probe — it must earn threshold consecutive successes, a
// failure in between resets the streak, and the recovery fires onRecover.
func TestHealthFlapDamping(t *testing.T) {
	boom := syscall.ECONNREFUSED
	h := newHealthMonitor([]string{"b"}, time.Second, 2)
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
	for i := 0; i < h.threshold; i++ {
		h.observe("b", nil)
	}
	if !h.routable("b") {
		t.Fatal("second recovery blocked (only one recent recovery; penalty needs two)")
	}
	h.markDown("b")
	for i := 0; i < h.threshold; i++ {
		h.observe("b", nil)
	}
	if h.routable("b") {
		t.Fatal("flapping backend recovered without the damping penalty")
	}
	for i := 0; i < h.threshold*(flapPenalty-1); i++ {
		h.observe("b", nil)
	}
	if !h.routable("b") {
		t.Fatal("flapping backend never recovered despite sustained good probes")
	}
}

// TestPartialPartitionRoutesAround: a backend whose wire operations fail
// while its health probes still pass (the nastiest partial partition) is
// routed around — every session lands on the healthy backend, the sick
// backend's circuit opens, and the router keeps serving throughout.
func TestPartialPartitionRoutesAround(t *testing.T) {
	srvA := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1})
	srvB := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1})
	sick := NewFaultBackend(NewLocal("a-backend", srvA), func(op string) error {
		switch op {
		case "open", "resume", "feed", "flush", "close":
			return syscall.ECONNREFUSED
		}
		return nil // probes and admin still pass
	})
	healthy := NewLocal("b-backend", srvB)

	rt, err := New([]Backend{sick, healthy}, Options{
		ProbeInterval: time.Hour, // probes out of the picture: the breaker must do the work
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Undo the markDown the first unreachable failure causes, as a healthy
	// probe round would, so the breaker is what keeps the backend skipped.
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
	if got := rt.metrics.breakerOpens["a-backend"].Value(); got == 0 {
		t.Error("partitioned backend's circuit never opened")
	}
	if got := rt.metrics.breakerShorts["a-backend"].Value(); got == 0 {
		t.Error("open circuit never short-circuited a call")
	}
	if got := rt.metrics.sessionsRouted["b-backend"].Value(); got != 24 {
		t.Errorf("healthy backend served %d sessions, want 24", got)
	}
}
