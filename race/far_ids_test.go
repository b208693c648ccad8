package race

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// farID is the id TestFarIDsCostAPage names for a variable, a lock, a
// volatile and a class: the last of each 32-bit id space.
const farID = math.MaxUint32

// farBatch is a run over variable, lock, volatile and class id, by threads
// below 8: a write outside and inside a critical section on the lock, a
// second thread's read under it, a volatile and a class edge, and two
// unordered writes, so that vindication has a race to answer. Its accesses
// are at location loc: vindication answers the first race at each.
func farBatch(id uint32, loc trace.Loc) []Event {
	evs := []Event{
		{T: 0, Op: OpWrite, Targ: id},
		{T: 0, Op: OpAcquire, Targ: id},
		{T: 0, Op: OpWrite, Targ: id},
		{T: 0, Op: OpRelease, Targ: id},
		{T: 1, Op: OpAcquire, Targ: id},
		{T: 1, Op: OpRead, Targ: id},
		{T: 1, Op: OpRelease, Targ: id},
		{T: 1, Op: OpVolatileWrite, Targ: id},
		{T: 2, Op: OpVolatileRead, Targ: id},
		{T: 2, Op: OpClassInit, Targ: id},
		{T: 3, Op: OpClassAccess, Targ: id},
		{T: 3, Op: OpWrite, Targ: id},
		{T: 7, Op: OpWrite, Targ: id},
	}
	for i := range evs {
		evs[i].Loc = loc
	}
	return evs
}

// spread is a variable id as far from 0 as one directory of 16-slot pages
// would reach within 2^24 ids: a window from 0 to it holds 2^20 pointers.
const spread = 1<<24 - 16

// spreadBatch is, on each of locks locks, a critical section of thread 0
// that writes variables 0 and spread and one of thread 1 that reads spread,
// then two unordered writes to spread, by threads below 8: every per-lock
// table of variables holds both ends of the spread. Its accesses are at
// location loc.
func spreadBatch(locks int, loc trace.Loc) []Event {
	var evs []Event
	for m := uint32(0); m < uint32(locks); m++ {
		evs = append(evs,
			Event{T: 0, Op: OpAcquire, Targ: m},
			Event{T: 0, Op: OpWrite, Targ: 0},
			Event{T: 0, Op: OpWrite, Targ: spread},
			Event{T: 0, Op: OpRelease, Targ: m},
			Event{T: 1, Op: OpAcquire, Targ: m},
			Event{T: 1, Op: OpRead, Targ: spread},
			Event{T: 1, Op: OpRelease, Targ: m})
	}
	evs = append(evs, Event{T: 3, Op: OpWrite, Targ: spread}, Event{T: 7, Op: OpWrite, Targ: spread})
	for i := range evs {
		evs[i].Loc = loc
	}
	return evs
}

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestFarIDsCostAPage: a far id costs the pages it touches, not a table
// reaching out to it. After a warm-up on id 0, one batch allocates at most
// 4 MB — which bounds the heap's growth too — on every door: the 15-cell
// engine, sequential and pipelined, a vindicating ST-WDC + ST-DC engine
// through Close, and trace.Check. The batches name variable, lock,
// volatile and class 2^32-1, or variables 0 and 2^24-16 under one lock, or
// under each of 64 locks.
func TestFarIDsCostAPage(t *testing.T) {
	for _, b := range []struct {
		name  string
		batch []Event
	}{
		{"far", farBatch(farID, 2)},
		{"spread", spreadBatch(1, 2)},
		{"spread-64-locks", spreadBatch(64, 2)},
	} {
		t.Run(b.name, func(t *testing.T) { farBatchCostsAPage(t, b.batch) })
	}
}

// farBatchCostsAPage holds every door to 4 MB for batch after a warm-up.
func farBatchCostsAPage(t *testing.T, batch []Event) {
	const budget = 4 << 20
	engine := func(close bool, opts ...Option) func(t *testing.T) {
		return func(t *testing.T) {
			eng, err := NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Abort()
			if err := eng.FeedBatch(farBatch(0, 1)); err != nil {
				t.Fatal(err)
			}
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
			before := allocated()
			if err := eng.FeedBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
			if close {
				rep, err := eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				answered := false
				for _, rc := range rep.Races() {
					if rc.Loc == 2 {
						_, answered = rep.Vindication(rc.Index)
						break
					}
				}
				if !answered {
					t.Error("no verdict for the batch's first race")
				}
			}
			if grew := allocated() - before; grew > budget {
				t.Errorf("the batch allocated %.1f MB, budget %d MB", float64(grew)/(1<<20), budget>>20)
			} else {
				t.Logf("the batch allocated %.1f kB", float64(grew)/(1<<10))
			}
		}
	}
	t.Run("fan-out", engine(false, WithAnalysisNames(Detectors()...)))
	t.Run("fan-out-par", engine(false, WithAnalysisNames(Detectors()...), WithParallelism(2)))
	t.Run("vindicating", engine(true, WithAnalysisNames("ST-WDC", "ST-DC"), WithVindication()))
	t.Run("check", func(t *testing.T) {
		evs := append(farBatch(0, 1), batch...)
		tr := &Trace{Events: evs, Threads: 8, Vars: farID + 1, Locks: farID + 1, Volatiles: farID + 1, Classes: farID + 1}
		before := allocated()
		if err := trace.Check(tr); err != nil {
			t.Fatal(err)
		}
		if grew := allocated() - before; grew > budget {
			t.Errorf("trace.Check allocated %.1f MB, budget %d MB", float64(grew)/(1<<20), budget>>20)
		}
	})
}
