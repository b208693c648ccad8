package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race"
)

// midpointRand is a deterministic jitter source that always returns the
// middle of [0, n): delay/2 + n/2 ≈ the nominal (un-jittered) delay, so
// schedule tests can assert exact values.
func midpointRand(n int64) int64 { return n / 2 }

// testReliable builds an unconnected ReliableSession with the timing
// seams swapped for deterministic stand-ins.
func testReliable(p RetryPolicy, rand63 func(int64) int64) *ReliableSession {
	rs := newReliable(context.Background(), "unused", []ReliableOption{WithRetry(p)})
	rs.rand63 = rand63
	return rs
}

func TestBackoffDelayExponentialGrowthAndCap(t *testing.T) {
	rs := testReliable(RetryPolicy{MaxAttempts: 10, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}, midpointRand)
	want := []time.Duration{
		100 * time.Millisecond, // attempt 1: base
		200 * time.Millisecond, // doubled per attempt…
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // …until the cap
		2 * time.Second,
		2 * time.Second,
	}
	for i, w := range want {
		if got := rs.backoffDelay(i + 1); got != w {
			t.Errorf("backoffDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// A shift big enough to overflow Duration must cap, not go negative.
	if got := rs.backoffDelay(80); got != 2*time.Second {
		t.Errorf("backoffDelay(80) = %v, want cap %v", got, 2*time.Second)
	}
}

func TestBackoffJitterWithinBounds(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
	nominal := 400 * time.Millisecond // attempt 3

	low := testReliable(policy, func(int64) int64 { return 0 })
	if got := low.backoffDelay(3); got != nominal/2 {
		t.Errorf("jitter floor = %v, want %v (0.5× nominal)", got, nominal/2)
	}
	high := testReliable(policy, func(n int64) int64 { return n - 1 })
	if got := high.backoffDelay(3); got < nominal || got >= nominal+nominal/2 {
		t.Errorf("jitter ceiling = %v, want in [%v, %v)", got, nominal, nominal+nominal/2)
	}
	// Every draw stays inside [0.5, 1.5) of nominal by construction; spot
	// check with the real (seeded-by-default) source wired in production.
	real := newReliable(context.Background(), "unused", []ReliableOption{WithRetry(policy)})
	for i := 0; i < 1000; i++ {
		if got := real.backoffDelay(3); got < nominal/2 || got >= nominal+nominal/2 {
			t.Fatalf("jittered delay %v outside [%v, %v)", got, nominal/2, nominal+nominal/2)
		}
	}
}

// TestReconnectBackoffSchedule drives a real reconnect loop against a dead
// address and asserts the waits the session actually scheduled: the first
// attempt is immediate, then base, then doubled — the documented policy,
// observed through the sleep seam instead of wall-clock sniffing.
func TestReconnectBackoffSchedule(t *testing.T) {
	_, addr := startTCP(t, Config{})
	rs, err := OpenReliable(context.Background(), addr, SessionConfig{},
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: 150 * time.Millisecond, MaxDelay: 2 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	rs.rand63 = midpointRand
	var waits []time.Duration
	rs.sleep = func(d time.Duration) <-chan time.Time {
		waits = append(waits, d)
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}

	// Cut the connection (a network drop, not a typed shutdown) and point
	// the reconnect at a port nothing listens on, so every re-dial is
	// refused and the loop deterministically runs to MaxAttempts.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	rs.addr = deadAddr
	rs.c.Close()
	if err := rs.Flush(); err == nil {
		t.Fatal("Flush across a cut connection with an unreachable backend succeeded")
	}

	want := []time.Duration{150 * time.Millisecond, 300 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("scheduled waits = %v, want %d waits (first attempt immediate)", waits, len(want))
	}
	for i, w := range want {
		if waits[i] != w {
			t.Errorf("wait %d = %v, want %v", i, waits[i], w)
		}
	}
}

// TestReplayBufferTrimOnFlushAck: fed events accumulate in the replay
// buffer until a flush ack covers them; each ack trims exactly the
// acknowledged prefix and advances Acked.
func TestReplayBufferTrimOnFlushAck(t *testing.T) {
	_, addr := startTCP(t, Config{})
	rs, err := OpenReliable(context.Background(), addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	tr := workload.Random(workload.RandomConfig{Seed: 7, Threads: 4, Vars: 8, Locks: 2, Events: 300})
	a, b := tr.Events[:200], tr.Events[200:]

	if err := rs.FeedBatch(append([]race.Event(nil), a...)); err != nil {
		t.Fatal(err)
	}
	if got := len(rs.pending); got != len(a) {
		t.Fatalf("pending = %d events before flush, want %d", got, len(a))
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(rs.pending); got != 0 {
		t.Errorf("pending = %d events after flush ack, want 0", got)
	}
	if got := rs.acked; got != uint64(len(a)) {
		t.Errorf("acked = %d, want %d", got, len(a))
	}

	if err := rs.FeedBatch(append([]race.Event(nil), b...)); err != nil {
		t.Fatal(err)
	}
	if got := len(rs.pending); got != len(b) {
		t.Fatalf("pending = %d events after second feed, want %d", got, len(b))
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rs.pending) != 0 || rs.acked != uint64(len(tr.Events)) {
		t.Errorf("after second ack: pending = %d, acked = %d; want 0, %d",
			len(rs.pending), rs.acked, len(tr.Events))
	}
}

// TestReliableSessionFailureClosesItsConnection: a reliable session that
// fails on a condition no reconnect heals — a protocol violation, a disk
// fault — closes its connection at once, so the server sees the session
// end instead of an idle socket, drops its replay buffer, and answers every
// Close with the same sticky error.
func TestReliableSessionFailureClosesItsConnection(t *testing.T) {
	for _, code := range []wire.ErrCode{wire.CodeProto, wire.CodeIO} {
		t.Run(string(code), func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			// A server that acks the hello, answers every flush with the
			// error, and reports how its read of the connection ended.
			ended := make(chan error, 1)
			go func() {
				conn, err := lis.Accept()
				if err != nil {
					ended <- err
					return
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(conn)
				if _, _, err := wire.ReadFrame(br); err != nil {
					ended <- err
					return
				}
				ack, _ := json.Marshal(AckPayload{Session: "scripted"})
				wire.WriteFrame(conn, wire.TAck, ack)
				for {
					ty, _, err := wire.ReadFrame(br)
					if err != nil {
						ended <- err
						return
					}
					if ty == wire.TFlush {
						wire.WriteFrame(conn, wire.TError, wire.EncodeError(code, "scripted failure"))
					}
				}
			}()

			rs, err := OpenReliable(context.Background(), lis.Addr().String(), SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tr := workload.Random(workload.RandomConfig{Seed: 3, Threads: 2, Vars: 4, Locks: 1, Events: 50})
			if err := rs.FeedBatch(append([]race.Event(nil), tr.Events...)); err != nil {
				t.Fatal(err)
			}
			ferr := rs.Flush()
			if got := Classify(ferr).Code; got != code {
				t.Fatalf("Flush = %v (code %q), want code %q", ferr, got, code)
			}
			select {
			case err := <-ended:
				if !errors.Is(err, io.EOF) {
					t.Fatalf("the server's read ended with %v, want EOF: the client closed the connection", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the failed session's connection is still open")
			}
			if rs.pending != nil {
				t.Errorf("the failed session keeps %d events for a replay that cannot happen", len(rs.pending))
			}
			for i := 0; i < 2; i++ {
				if _, err := rs.Close(); err != ferr {
					t.Fatalf("Close #%d = %v, want the sticky %v", i+1, err, ferr)
				}
			}
		})
	}
}
