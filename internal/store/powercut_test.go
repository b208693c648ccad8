package store

import (
	"errors"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// writeUntilCut replays a fixed journaled-session write pattern (append
// runs with a Sync barrier every flushEvery events, rotating segments)
// against fsys until either the pattern completes or the power cut fires.
// It returns the number of events known durable at the cut: the offset a
// server would have acked (Synced after the last successful barrier,
// which rotation can advance past the last explicit Sync).
func writeUntilCut(t *testing.T, fsys fault.FS, dir string, evs []trace.Event, flushEvery, segEvents int) (floor uint64, cut bool) {
	t.Helper()
	l, err := Open(dir, Options{SegmentEvents: segEvents, FS: fsys})
	if err != nil {
		if fault.Injected(err) {
			return 0, true
		}
		t.Fatal(err)
	}
	floor = l.synced
	for i := 0; i < len(evs); i += flushEvery {
		end := min(i+flushEvery, len(evs))
		if err := l.AppendBatch(evs[i:end]); err != nil {
			if fault.Injected(err) {
				return floor, true
			}
			t.Fatal(err)
		}
		// Rotation inside AppendBatch is a durability point too.
		floor = max(floor, l.synced)
		if err := l.Sync(); err != nil {
			if fault.Injected(err) {
				return floor, true
			}
			t.Fatal(err)
		}
		floor = l.synced
	}
	if err := l.Close(); err != nil {
		if fault.Injected(err) {
			return floor, true
		}
		t.Fatal(err)
	}
	return uint64(len(evs)), false
}

// recoveredPrefix reopens the cut directory and returns every event the
// recovered log serves.
func recoveredPrefix(t *testing.T, dir string) []trace.Event {
	t.Helper()
	l, err := Open(dir, Options{SegmentEvents: 64})
	if err != nil {
		t.Fatalf("recovery open after cut: %v", err)
	}
	defer l.Close()
	r, err := l.Reader()
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("recovered replay: %v", err)
		}
		out = append(out, ev)
	}
	return out
}

// TestPowerCutAtEveryFsyncBoundary is the store-layer torture test: the
// same journaled write pattern is killed at every fsync boundary it has —
// explicit Sync barriers and rotation seals alike, each both before the
// fsync completes and just after — with a torn partial record left on the
// tail, and recovery must (a) replay a clean prefix of the input, never
// diverging, and (b) keep at least everything a flush barrier acked.
func TestPowerCutAtEveryFsyncBoundary(t *testing.T) {
	const (
		total      = 1100
		flushEvery = 64
		segEvents  = 256 // several rotations inside the run
	)
	evs := genEvents(total)

	// Dry run to count the pattern's fsync boundaries.
	dry := fault.NewCrashFS()
	if _, cut := writeUntilCut(t, dry, filepath.Join(t.TempDir(), "dry"), evs, flushEvery, segEvents); cut {
		t.Fatal("dry run hit a cut")
	}
	boundaries := dry.Syncs()
	if boundaries < 15 {
		t.Fatalf("pattern has only %d fsync boundaries; widen the workload", boundaries)
	}

	for n := int64(1); n <= boundaries; n++ {
		for _, after := range []bool{false, true} {
			dir := filepath.Join(t.TempDir(), "log")
			fsys := fault.NewCrashFS()
			// Leave up to 7 bytes of torn tail (a partial 12-byte record).
			fsys.CutAtSync(n, after, 7)
			floor, cut := writeUntilCut(t, fsys, dir, evs, flushEvery, segEvents)
			if !cut {
				t.Fatalf("cut %d (after=%v) never fired", n, after)
			}
			got := recoveredPrefix(t, dir)
			if uint64(len(got)) < floor {
				t.Fatalf("cut %d (after=%v): recovered %d events, but %d were acked durable",
					n, after, len(got), floor)
			}
			if uint64(len(got)) > uint64(total) {
				t.Fatalf("cut %d (after=%v): recovered %d events from a %d-event run",
					n, after, len(got), total)
			}
			for i, ev := range got {
				if ev != evs[i] {
					t.Fatalf("cut %d (after=%v): recovered event %d = %v, want %v — divergent prefix",
						n, after, i, ev, evs[i])
				}
			}
		}
	}
}

// TestInjectedSyncFailureSurfaces pins the failure mode the server's
// disk-degradation policy keys on: an injected fsync error must reach the
// caller classified (fault.Injected) and must not corrupt the log for
// subsequent recovery.
func TestInjectedSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	fsys := fault.NewInjectFS(nil, fault.FSPlan{FailSyncEvery: 2})
	l, err := Open(dir, Options{SegmentEvents: 1 << 20, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	evs := genEvents(100)
	if err := l.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync 1 should pass: %v", err)
	}
	if err := l.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	err = l.Sync()
	if err == nil || !fault.Injected(err) {
		t.Fatalf("sync 2: want injected failure, got %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error lost its sentinel: %v", err)
	}
	// The flushed-but-unsynced records are still on disk; a reopen must
	// recover a clean prefix without error.
	got := recoveredPrefix(t, dir)
	if len(got) < 100 {
		t.Fatalf("recovered only %d events after failed sync", len(got))
	}
}
