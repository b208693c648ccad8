package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// batchReport computes the in-process truth: one engine over the whole
// trace, canonical JSON.
func batchReport(t *testing.T, tr *race.Trace, names []string) []byte {
	t.Helper()
	eng, err := race.NewEngine(race.WithAnalysisNames(names...))
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
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// startFleet boots n durable local backends behind a router with fast
// probes and a TCP wire listener, returning the router, the backends, and
// the router's wire address.
func startFleet(t *testing.T, n int) (*Router, []*Local, string) {
	t.Helper()
	rt, locals, _, addr := fleetOf(t, n, 0, Options{ProbeInterval: 50 * time.Millisecond})
	return rt, locals, addr
}

// holderOf finds which backend currently holds the live session.
func holderOf(t *testing.T, locals []*Local, id string) (*Local, *Local) {
	t.Helper()
	var holder, other *Local
	for _, b := range locals {
		if _, ok := b.Server().Session(id); ok {
			holder = b
		} else {
			other = b
		}
	}
	if holder == nil {
		t.Fatalf("session %s not live on any backend", id)
	}
	return holder, other
}

// feedReliable pushes tr.Events[from:to] through the reliable session in
// fixed chunks.
func feedReliable(t *testing.T, sess *server.ReliableSession, tr *race.Trace, from, to, chunk int) {
	t.Helper()
	for off := from; off < to; off += chunk {
		end := min(off+chunk, to)
		if err := sess.FeedBatch(tr.Events[off:end]); err != nil {
			t.Fatalf("feeding [%d:%d): %v", off, end, err)
		}
	}
}

// TestMigrationMidStreamConformanceAllCells is the tentpole's migration
// acceptance: a session explicitly migrated between backends mid-stream —
// while its client keeps streaming through the router — reports
// byte-identical to uninterrupted batch Analyze, with the full 15-cell
// Table 1 fan-out in one session.
func TestMigrationMidStreamConformanceAllCells(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(40000, 3)
	want := batchReport(t, tr, names)

	rt, locals, addr := startFleet(t, 2)
	ctx := context.Background()

	sess, err := server.OpenReliable(ctx, addr, server.SessionConfig{Analyses: names},
		server.WithRetry(server.RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()
	if id == "" || id[0] != 'f' {
		t.Fatalf("router-assigned id %q is not a fleet id", id)
	}

	mid := len(tr.Events) / 2
	feedReliable(t, sess, tr, 0, mid, 1003)
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	holder, other := holderOf(t, locals, id)
	if err := rt.MigrateSession(ctx, id, other.Name()); err != nil {
		t.Fatalf("migrating %s from %s to %s: %v", id, holder.Name(), other.Name(), err)
	}
	if _, ok := holder.Server().Session(id); ok {
		t.Fatalf("session %s still live on migration source %s", id, holder.Name())
	}
	if _, ok := other.Server().Session(id); !ok {
		t.Fatalf("session %s not live on migration target %s", id, other.Name())
	}

	// The client rides out the handoff transparently: its next ops hit the
	// router's redirect (or the torn connection), reconnect, resume at the
	// acked offset, and replay the unacknowledged suffix.
	feedReliable(t, sess, tr, mid, len(tr.Events), 997)
	got, err := sess.CloseJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("migrated report differs from uninterrupted batch Analyze\n--- migrated ---\n%s\n--- batch ---\n%s", got, want)
	}

	if done, failed := rt.metrics.migCompleted.Value(), rt.metrics.migFailed.Value(); done == 0 || failed != 0 {
		t.Errorf("metrics after migration: %d completed, %d failed", done, failed)
	}
}

// TestCrashMigrationConformanceAllCells: the source backend is hard-killed
// mid-stream (simulated SIGKILL — no suspend, no warning). The client's
// resume routes to the survivor, which recovers the session from the dead
// backend's journal; the final report must still be byte-identical to
// batch Analyze across all 15 cells. A crash costs a journal replay, not
// data.
func TestCrashMigrationConformanceAllCells(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want 15", len(names))
	}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 7, Threads: 6, Chans: 4, MaxCap: 3, Locks: 2, Vars: 6, Events: 3000,
	})
	crashMigrate(t, server.SessionConfig{Analyses: names}, tr, batchReport(t, tr, names))
}

// TestCrashMigrationVindicatesFromTheJournal: a vindicating session crash-
// migrated the same way vindicates at close from the journal the survivor
// recovered, with the verdicts of an in-process WithVindication engine, and
// neither backend's data dir holds a second copy of the stream.
func TestCrashMigrationVindicatesFromTheJournal(t *testing.T) {
	names := []string{"ST-WDC", "ST-DC"}
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(4000, 11)
	eng, err := race.NewEngine(race.WithAnalysisNames(names...), race.WithVindication())
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
	want, _ := json.Marshal(rep)
	locals := crashMigrate(t, server.SessionConfig{Analyses: names, Vindicate: true}, tr, want)
	for _, b := range locals {
		if _, err := os.Stat(filepath.Join(b.Server().DataDir(), "spill")); !os.IsNotExist(err) {
			t.Errorf("backend %s data dir has a spill entry (stat: %v)", b.Name(), err)
		}
	}
}

// crashMigrate streams tr through a reliable session of cfg on a two-backend
// fleet, hard-kills the holder after a flush barrier halfway, finishes the
// stream on the survivor and requires the report to be want. It returns the
// backends.
func crashMigrate(t *testing.T, cfg server.SessionConfig, tr *race.Trace, want []byte) []*Local {
	t.Helper()
	rt, locals, addr := startFleet(t, 2)
	ctx := context.Background()

	sess, err := server.OpenReliable(ctx, addr, cfg,
		server.WithRetry(server.RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()

	mid := len(tr.Events) / 2
	feedReliable(t, sess, tr, 0, mid, 251)
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	holder, survivor := holderOf(t, locals, id)
	if live, ok := holder.Server().Session(id); !ok || live.Fed() != uint64(mid) {
		t.Fatalf("flush acked, but the holder has not analyzed all %d events", mid)
	}
	holder.Kill()

	feedReliable(t, sess, tr, mid, len(tr.Events), 239)
	got, err := sess.CloseJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("crash-migrated report differs from in-process analysis\n--- migrated ---\n%s\n--- in-process ---\n%s", got, want)
	}
	if _, ok := survivor.Server().Session(id); ok {
		// Close ended it; it should be finished, not live.
		t.Errorf("session %s still streaming on survivor after close", id)
	}

	if rt.metrics.migCompleted.Value() == 0 {
		t.Error("no completed migration recorded")
	}
	if st := rt.health.status(holder.Name()); st != "down" {
		t.Errorf("killed backend status %q, want down", st)
	}
	return locals
}

// TestDrainedBackendResumeMigrates: a durable session whose client
// disconnects, whose backend is then drained, must — on resume through the
// router — be migrated off the draining backend and complete elsewhere
// with a byte-identical report. Draining means "no new sessions AND shed
// resumable ones", while in-flight connections elsewhere are untouched.
func TestDrainedBackendResumeMigrates(t *testing.T) {
	names := []string{"ST-WDC", "FTO-HB"}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 11, Threads: 5, Chans: 3, MaxCap: 2, Locks: 2, Vars: 5, Events: 3000,
	})
	want := batchReport(t, tr, names)

	rt, locals, addr := startFleet(t, 2)
	ctx := context.Background()

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Open(server.SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()
	mid := len(tr.Events) / 2
	if err := sess.FeedBatch(tr.Events[:mid]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close() // drop the connection; the durable session stays resumable

	holder, other := holderOf(t, locals, id)
	if err := holder.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rt.health.observe(holder.Name(), ErrBackendDraining)

	// New sessions avoid the draining backend entirely.
	c2, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fresh, err := c2.Open(server.SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := holder.Server().Session(fresh.ID()); ok {
		t.Fatalf("fresh session landed on draining backend %s", holder.Name())
	}

	// Resuming the old session through the router migrates it off the
	// draining backend.
	c3, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	resumed, fed, err := c3.Resume(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if fed < uint64(mid) || fed > uint64(len(tr.Events)) {
		t.Fatalf("resume offset %d outside [%d, %d]", fed, mid, len(tr.Events))
	}
	if _, ok := holder.Server().Session(id); ok {
		t.Fatalf("resumed session %s still lives on draining backend", id)
	}
	if _, ok := other.Server().Session(id); !ok {
		t.Fatalf("resumed session %s not on the routable backend", id)
	}
	if err := resumed.FeedBatch(tr.Events[fed:]); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.CloseJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("drain-migrated report differs from batch Analyze")
	}
}

// TestRouterSpreadsSessions: with healthy backends the hash ring actually
// uses the fleet — many sessions land on more than one backend, and the
// routing metrics account for every placement.
func TestRouterSpreadsSessions(t *testing.T) {
	rt, locals, addr := startFleet(t, 2)
	const n = 16
	for i := 0; i < n; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Open(server.SessionConfig{Analyses: []string{"FTO-HB"}}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	var routed uint64
	spread := 0
	for _, b := range locals {
		c := rt.metrics.sessionsRouted[b.Name()].Value()
		routed += c
		if c > 0 {
			spread++
		}
	}
	if routed != n {
		t.Errorf("metrics count %d sessions routed, want %d", routed, n)
	}
	if spread < 2 {
		t.Errorf("all %d sessions landed on one backend; ring not spreading", n)
	}
}

// TestRouterSessionIDSource: a router given an id source places sessions by
// its ids, in order — what makes a seeded fault schedule hit the same
// backends on every replay — and falls back to NewSessionID without one.
func TestRouterSessionIDSource(t *testing.T) {
	srv := server.New(server.Config{IdleTimeout: -1})
	t.Cleanup(func() { srv.Close() })
	next := 0
	rt, err := New([]Backend{NewLocal("only", srv)}, Options{NewSessionID: func() string {
		next++
		return "fseeded" + string(rune('0'+next))
	}})
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
	for _, want := range []string{"fseeded1", "fseeded2"} {
		c, err := server.Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.Open(server.SessionConfig{Analyses: []string{"FTO-HB"}})
		if err != nil {
			t.Fatal(err)
		}
		if sess.ID() != want {
			t.Errorf("session id = %q, want %q from the configured source", sess.ID(), want)
		}
		c.Close()
	}
	if rt, _, _ := startFleet(t, 1); len(rt.newID()) != 13 {
		t.Errorf("default id source is not NewSessionID")
	}
}
