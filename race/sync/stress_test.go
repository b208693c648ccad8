package sync_test

import (
	"fmt"
	"testing"

	"repro/race"
	rsync "repro/race/sync"
)

// TestStressPrimitivesOnlineEqualsBatch hammers every shadow primitive
// from many goroutines at once with an attached multi-analysis engine,
// then checks three things at once:
//
//   - the recorder and the shadow primitives are themselves data-race
//     free (this test is part of the -race CI job),
//   - the recorded snapshot is well formed (Snapshot re-checks it), and
//   - the online engine report equals a batch replay of the snapshot for
//     every analysis in the fan-out, and reports zero races: the program
//     is fully disciplined, so any reported race would be lowering
//     ordering lost somewhere.
func TestStressPrimitivesOnlineEqualsBatch(t *testing.T) {
	const (
		workers = 8
		iters   = 120
	)
	names := []string{"FTO-HB", "FT2", "ST-WCP", "ST-DC", "ST-WDC", "Unopt-WDC"}
	eng, err := race.NewEngine(race.WithAnalysisNames(names...))
	if err != nil {
		t.Fatal(err)
	}
	env := rsync.NewEnv(race.WithEngineAttached(eng))
	root := env.Root()

	var (
		ctrMu rsync.Mutex   // guards "counter"
		cfgMu rsync.RWMutex // guards "config"
		once  rsync.Once    // initializes "table"
		wg    rsync.WaitGroup
	)
	cfgMu.Lock(root)
	root.Write("config")
	cfgMu.Unlock(root)

	wg.Add(root, workers)
	var handles []*rsync.Handle

	// Pair up workers over channels: even workers produce, odd workers
	// consume the matching stream, with a per-message payload cell.
	chans := make([]*rsync.Chan[int], workers/2)
	for i := range chans {
		chans[i] = rsync.NewChan[int](1 + i%3) // capacities 1..3
	}
	key := func(pair, i int) string { return fmt.Sprintf("pair%d.msg%d", pair, i) }

	for w := 0; w < workers; w++ {
		w := w
		handles = append(handles, root.Go(func(g *rsync.G) {
			once.Do(g, func() { g.Write("table") })
			g.Read("table")
			pair := w / 2
			for i := 0; i < iters; i++ {
				ctrMu.Lock(g)
				g.Read("counter")
				g.Write("counter")
				ctrMu.Unlock(g)

				if i%10 == 5 && w == 0 {
					cfgMu.Lock(g)
					g.Write("config")
					cfgMu.Unlock(g)
				} else {
					cfgMu.RLock(g)
					g.Read("config")
					cfgMu.RUnlock(g)
				}

				if w%2 == 0 {
					g.Write(key(pair, i))
					chans[pair].Send(g, i)
				} else {
					j, ok := chans[pair].Recv(g)
					if !ok {
						t.Error("unexpected closed channel")
						break
					}
					g.Read(key(pair, j))
				}
			}
			if w%2 == 0 {
				chans[pair].Close(g)
			} else {
				if _, ok := chans[pair].Recv(g); ok {
					t.Error("expected drained channel")
				}
			}
			wg.Done(g)
		}))
	}
	wg.Wait(root)
	root.Read("counter") // safe: published by Done/Wait
	for _, h := range handles {
		h.Join(root)
	}

	tr, err := env.Snapshot() // re-checks well-formedness
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	rep, err := env.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for _, name := range names {
		sub, ok := rep.ByAnalysis(name)
		if !ok {
			t.Fatalf("missing sub-report %s", name)
		}
		if sub.Dynamic() != 0 {
			t.Errorf("%s: %d races on a fully synchronized stress program: %v",
				name, sub.Dynamic(), sub.Races())
		}
		batch, err := race.AnalyzeByName(tr, name)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Dynamic() != batch.Dynamic() || sub.Static() != batch.Static() {
			t.Errorf("%s: online (dyn=%d, st=%d) != batch (dyn=%d, st=%d)",
				name, sub.Dynamic(), sub.Static(), batch.Dynamic(), batch.Static())
		}
	}
	if env.Err() != nil {
		t.Fatalf("recording error: %v", env.Err())
	}
}

// TestStressChanConcurrentReceiversAlternation hammers one buffered
// channel with several senders AND several receivers at once and then
// checks the recorded lowering invariant directly: every buffer cell's
// volatile must strictly alternate write (send) / read (receive) in the
// linearization. A cell's token is returned only after the draining
// receive has recorded, and taken before the reusing send records, so
// the alternation must hold even when a concurrent receiver of another
// cell finishes first — the regression this test pins is a send
// recording its write before the cell's receive recorded its read.
// (The channel is never closed and carries no payload accesses, so the
// cells are the only volatiles in the trace.)
func TestStressChanConcurrentReceiversAlternation(t *testing.T) {
	const (
		senders   = 3
		receivers = 3
		per       = 200
		capacity  = 3
	)
	env := rsync.NewEnv()
	root := env.Root()
	ch := rsync.NewChan[int](capacity)
	var hs []*rsync.Handle
	for s := 0; s < senders; s++ {
		hs = append(hs, root.Go(func(g *rsync.G) {
			for i := 0; i < per; i++ {
				ch.Send(g, i)
			}
		}))
	}
	for r := 0; r < receivers; r++ {
		hs = append(hs, root.Go(func(g *rsync.G) {
			for i := 0; i < per; i++ {
				if _, ok := ch.Recv(g); !ok {
					t.Error("unexpected close")
					return
				}
			}
		}))
	}
	for _, h := range hs {
		h.Join(root)
	}
	tr, err := env.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	vols := make(map[uint32]bool)
	for _, e := range tr.Events {
		if e.Op == race.OpVolatileRead || e.Op == race.OpVolatileWrite {
			vols[e.Targ] = true
		}
	}
	if len(vols) != capacity {
		t.Fatalf("expected exactly %d volatiles (the buffer cells), got %d", capacity, len(vols))
	}
	pendingRead := make(map[uint32]bool)
	for i, e := range tr.Events {
		switch e.Op {
		case race.OpVolatileWrite:
			if pendingRead[e.Targ] {
				t.Fatalf("event %d: send recorded on cell %d before the draining receive", i, e.Targ)
			}
			pendingRead[e.Targ] = true
		case race.OpVolatileRead:
			if !pendingRead[e.Targ] {
				t.Fatalf("event %d: receive recorded on cell %d with no pending send", i, e.Targ)
			}
			pendingRead[e.Targ] = false
		}
	}
}

// TestStressManyGoroutinesForkJoinTree forks a two-level tree of
// goroutines, each guarding a shared counter with the one mutex, to
// stress thread creation, the per-thread intern caches, and fork/join
// merging under -race.
func TestStressManyGoroutinesForkJoinTree(t *testing.T) {
	env := rsync.NewEnv()
	root := env.Root()
	var mu rsync.Mutex
	var leaves []*rsync.Handle
	var mids []*rsync.Handle
	done := make(chan []*rsync.Handle, 4) // unrecorded plumbing of handles
	for i := 0; i < 4; i++ {
		mids = append(mids, root.Go(func(g *rsync.G) {
			var hs []*rsync.Handle
			for j := 0; j < 4; j++ {
				hs = append(hs, g.Go(func(gg *rsync.G) {
					for k := 0; k < 50; k++ {
						mu.Lock(gg)
						gg.Read("shared")
						gg.Write("shared")
						mu.Unlock(gg)
					}
				}))
			}
			for _, h := range hs {
				h.Join(g)
			}
			done <- hs
		}))
	}
	for range mids {
		leaves = append(leaves, <-done...)
	}
	_ = leaves
	for _, h := range mids {
		h.Join(root)
	}
	wantNoRaces(t, env)
}
