package fleet

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// mixedTraces returns n traces cycling through a DaCapo program, random
// streams and channel-heavy streams, each under its own seed.
func mixedTraces(n int) []*race.Trace {
	p, _ := workload.ProgramByName("avrora")
	out := make([]*race.Trace, n)
	for i := range out {
		seed := int64(i + 1)
		switch i % 3 {
		case 0:
			out[i] = p.Generate(4000, seed)
		case 1:
			out[i] = workload.Random(workload.RandomConfig{Seed: seed, Threads: 5, Vars: 12, Locks: 3, Events: 3000})
		default:
			out[i] = workload.Channels(workload.ChannelsConfig{Seed: seed, Threads: 5, Events: 3000})
		}
	}
	return out
}

// streamAndClose feeds tr through sess in chunks, flushing after each half,
// and returns the closing report.
func streamAndClose(sess *server.ReliableSession, tr *race.Trace) ([]byte, error) {
	mid := len(tr.Events) / 2
	for _, half := range [][]race.Event{tr.Events[:mid], tr.Events[mid:]} {
		for off := 0; off < len(half); off += 509 {
			if err := sess.FeedBatch(half[off:min(off+509, len(half))]); err != nil {
				return nil, err
			}
		}
		if err := sess.Flush(); err != nil {
			return nil, err
		}
	}
	return sess.CloseJSON()
}

// concurrently runs f(i) for i in [0, n) on n goroutines and waits.
func concurrently(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// TestConcurrentSessionsMatchBatch: reliable sessions streaming through a
// two-backend router at the same time each report byte-identical to batch
// Analyze of their own trace.
func TestConcurrentSessionsMatchBatch(t *testing.T) {
	names := []string{"ST-WDC", "FTO-HB"}
	traces := mixedTraces(9)
	_, _, addr := startFleet(t, 2)

	reports := make([][]byte, len(traces))
	errs := make([]error, len(traces))
	concurrently(len(traces), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sess, err := server.OpenReliable(ctx, addr, server.SessionConfig{Analyses: names})
		if err != nil {
			errs[i] = err
			return
		}
		reports[i], errs[i] = streamAndClose(sess, traces[i])
	})
	for i, tr := range traces {
		if errs[i] != nil {
			t.Errorf("session %d: %v (%s)", i, errs[i], server.Classify(errs[i]).Label)
			continue
		}
		if !bytes.Equal(reports[i], batchReport(t, tr, names)) {
			t.Errorf("session %d: report differs from batch Analyze", i)
		}
	}
}

// TestConcurrentOpensPastCapacityAreServerFull: against two backends that
// admit one session each, concurrent opens past the fleet's capacity are
// refused as server_full, and the two admitted sessions still finish
// byte-identical to batch Analyze.
func TestConcurrentOpensPastCapacityAreServerFull(t *testing.T) {
	names := []string{"ST-WDC"}
	traces := mixedTraces(8)
	_, _, _, addr := fleetOf(t, 2, server.Config{MaxSessions: 1}, Options{})

	sessions := make([]*server.ReliableSession, len(traces))
	errs := make([]error, len(traces))
	concurrently(len(traces), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sessions[i], errs[i] = server.OpenReliable(ctx, addr, server.SessionConfig{Analyses: names})
	})
	var admitted []int
	for i, err := range errs {
		if err == nil {
			admitted = append(admitted, i)
			continue
		}
		if !errors.Is(err, server.ErrServerFull) || server.Classify(err).Label != "server_full" {
			t.Errorf("overflow open %d: %v (%s), want ErrServerFull labelled server_full",
				i, err, server.Classify(err).Label)
		}
	}
	if len(admitted) != 2 {
		t.Fatalf("%d of %d concurrent opens admitted by two one-session backends, want 2", len(admitted), len(traces))
	}

	reports := make([][]byte, len(admitted))
	closeErrs := make([]error, len(admitted))
	concurrently(len(admitted), func(k int) {
		i := admitted[k]
		reports[k], closeErrs[k] = streamAndClose(sessions[i], traces[i])
	})
	for k, i := range admitted {
		if closeErrs[k] != nil {
			t.Errorf("admitted session %d: %v (%s)", i, closeErrs[k], server.Classify(closeErrs[k]).Label)
			continue
		}
		if !bytes.Equal(reports[k], batchReport(t, traces[i], names)) {
			t.Errorf("admitted session %d: report differs from batch Analyze", i)
		}
	}
}
