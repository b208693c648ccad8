package race

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
)

// owned is a computation that checks the scheduler's two promises about it
// — one worker at a time, every event exactly once in feed order — and
// panics on a breach (or, when armed, at a chosen event). Events carry
// their stream position in Loc. Every spin-th event burns a little CPU, so
// the computations differ in measured cost the way real ones do.
type owned struct {
	inside  atomic.Int32
	applied int // events handled; read by the test only after a Sync or Close
	spin    int
	panicAt int           // stream position to panic at; < 0 never
	nap     time.Duration // pause before that panic
	col     *report.Collector
	sink    uint64
}

func (o *owned) HandleRun(evs []Event, _ analysis.Same) {
	if !o.inside.CompareAndSwap(0, 1) {
		panic("HandleRun entered by two workers at once")
	}
	defer o.inside.Store(0)
	for _, e := range evs {
		if int(e.Loc) != o.applied {
			panic(fmt.Sprintf("event %d handled after %d events", e.Loc, o.applied))
		}
		if o.applied == o.panicAt {
			time.Sleep(o.nap)
			panic("armed")
		}
		o.applied++
		if o.spin > 0 && o.applied%o.spin == 0 {
			for i := 0; i < 200; i++ {
				o.sink = o.sink*6364136223846793005 + 1
			}
			o.col.Add(report.Race{Var: e.Targ, Loc: e.Loc, Index: int(e.Loc), Write: true})
		}
	}
}

// ownedEngine builds a parallel engine over hand-made computations, the
// way NewEngine does over Table 1 cells.
func ownedEngine(workers, batch int, onRace func(RaceInfo), comps ...*owned) *Engine {
	e := &Engine{onRace: onRace}
	for i, o := range comps {
		o.col = report.NewCollector()
		name := fmt.Sprintf("owned-%d", i)
		e.dets = append(e.dets, engineDet{name: name, col: o.col})
		e.comps = append(e.comps, computation{name: name, a: o, dets: []int{i}})
	}
	e.startPipeline(workers, batch)
	return e
}

func positions(lo, hi int) []Event {
	evs := make([]Event, 0, hi-lo)
	for i := lo; i < hi; i++ {
		evs = append(evs, Event{T: 0, Op: OpWrite, Targ: uint32(i % 5), Loc: trace.Loc(i)})
	}
	return evs
}

// TestSchedulerOneOwnerInOrderAndSyncIsABarrier runs more computations
// than workers, of unequal cost, through ragged runs and batch sizes that
// force claims of one batch and of many, ring wrap-around and
// backpressure. Run under -race it also proves Sync is a real barrier:
// the test goroutine reads every computation's counter right after it.
func TestSchedulerOneOwnerInOrderAndSyncIsABarrier(t *testing.T) {
	for _, cfg := range []struct{ workers, batch int }{{2, 1}, {3, 7}, {2, 64}, {4, 1024}} {
		comps := []*owned{{spin: 1}, {spin: 3}, {spin: 0}, {spin: 17}, {spin: 2}}
		for _, o := range comps {
			o.panicAt = -1
		}
		delivered := 0
		eng := ownedEngine(cfg.workers, cfg.batch, func(RaceInfo) { delivered++ }, comps...)
		fed := 0
		for _, run := range []int{1, 5, 300, 64, 2000, 9, 4096, 1} {
			if err := eng.FeedBatch(positions(fed, fed+run)); err != nil {
				t.Fatal(err)
			}
			fed += run
			if run%2 == 0 {
				continue // let batches pile up behind the barrier
			}
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
			races := 0
			for i, o := range comps {
				if o.applied != fed {
					t.Fatalf("workers=%d batch=%d: Sync returned with computation %d at %d of %d events", cfg.workers, cfg.batch, i, o.applied, fed)
				}
				races += o.col.RaceCount()
			}
			if delivered != races {
				t.Fatalf("workers=%d batch=%d: Sync returned with %d of %d races delivered", cfg.workers, cfg.batch, delivered, races)
			}
		}
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		for i, o := range comps {
			if o.applied != fed {
				t.Errorf("workers=%d batch=%d: computation %d closed at %d of %d events", cfg.workers, cfg.batch, i, o.applied, fed)
			}
		}
	}
}

// TestSchedulerClaimsCostliestPending: once costs are measured, a free
// worker takes the most expensive computation that has batches pending,
// skipping claimed and caught-up ones.
func TestSchedulerClaimsCostliestPending(t *testing.T) {
	p := &pipeline{tail: 3}
	for _, cost := range []float64{20, 120, 60, 125} {
		p.tasks = append(p.tasks, &task{cost: cost})
	}
	p.tasks[3].claimed = true // the costliest is being worked on
	p.tasks[1].next = 3       // the next costliest has nothing pending
	if got := p.claim(); got != p.tasks[2] {
		t.Errorf("claimed the task costing %v, want the one costing 60", got.cost)
	}
	p.tasks[2].claimed, p.tasks[0].next = true, 3
	if got := p.claim(); got != nil {
		t.Errorf("claimed the task costing %v with nothing claimable", got.cost)
	}
}

// TestSchedulerPanickingAnalysisPoisons: a computation that panics
// mid-stream poisons the engine — Feed or Sync reports it, nothing hangs
// on the cursor that will never move again, the other computations keep
// their one-owner, in-order guarantees, and Close joins every worker.
func TestSchedulerPanickingAnalysisPoisons(t *testing.T) {
	for _, workers := range []int{2, 4} {
		// Without barriers the feeder runs a full ring ahead of the doomed
		// computation, which naps before it panics: the feeder is then parked
		// on backpressure, and only the poison can wake it. With barriers it
		// is Sync that must not wait for the dead cursor.
		barriers := workers == 4
		comps := []*owned{{panicAt: -1}, {panicAt: 1000, nap: 20 * time.Millisecond}, {panicAt: -1}, {panicAt: -1}}
		eng := ownedEngine(workers, 32, nil, comps...)
		done := make(chan error, 1)
		go func() {
			var err error
			for fed := 0; fed < 100*2*ringCapacity && err == nil; fed += 100 {
				if err = eng.FeedBatch(positions(fed, fed+100)); err == nil && barriers && fed%1000 == 0 {
					err = eng.Sync()
				}
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "analysis panicked") {
				t.Fatalf("workers=%d: feeding returned %v, want the analysis panic", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: feeder hung behind a dead computation", workers)
		}
		if err := eng.Sync(); err == nil {
			t.Errorf("workers=%d: Sync on a poisoned engine succeeded", workers)
		}
		if _, err := eng.Close(); err == nil || !strings.Contains(err.Error(), "analysis panicked") {
			t.Errorf("workers=%d: Close = %v, want the analysis panic", workers, err)
		}
		if comps[1].applied != 1000 {
			t.Errorf("workers=%d: the panicking computation handled %d events, want 1000", workers, comps[1].applied)
		}
	}
}

// TestSchedulerPanickingOnRacePoisons: a panicking OnRace callback poisons
// the engine from the worker that delivered it, and Sync and Close still
// return.
func TestSchedulerPanickingOnRacePoisons(t *testing.T) {
	comps := []*owned{{spin: 50, panicAt: -1}, {spin: 0, panicAt: -1}, {spin: 7, panicAt: -1}}
	eng := ownedEngine(2, 16, func(RaceInfo) { panic("callback bug") }, comps...)
	var err error
	for fed := 0; fed < 5000 && err == nil; fed += 250 {
		if err = eng.FeedBatch(positions(fed, fed+250)); err == nil {
			err = eng.Sync()
		}
	}
	if err == nil || !strings.Contains(err.Error(), "OnRace callback panicked") {
		t.Fatalf("feeding returned %v, want the callback panic", err)
	}
	if _, err := eng.Close(); err == nil || !strings.Contains(err.Error(), "OnRace callback panicked") {
		t.Errorf("Close = %v, want the callback panic", err)
	}
}
