// Recording-throughput benchmarks: events/sec through race.Runtime, the
// overhead story for online detection in real programs. The interesting
// comparison is single-thread vs parallel recording (per-thread buffers
// and intern caches should keep parallel recording off the global locks)
// and access recording vs sync-point recording (which commits buffers to
// the linearization).
//
//	go test ./internal/bench -bench=Record -benchmem
package bench_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/race"
)

// syncEvery inserts a volatile sync point into the recorded stream every
// N accesses, bounding buffer growth the way real recorded programs do.
const syncEvery = 1024

func reportEventsPerSec(b *testing.B, events int) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// BenchmarkRecordAccessSingle measures one thread recording plain
// accesses over a rotating working set of keys (all hitting the
// per-thread intern caches after the first lap).
func BenchmarkRecordAccessSingle(b *testing.B) {
	rt := race.NewRuntime()
	t0 := rt.Main()
	var keys [64]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Read(t0, &keys[i&63])
		if i%syncEvery == syncEvery-1 {
			rt.VolatileWrite(t0, &keys)
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, b.N)
	if err := rt.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecordAccessParallel measures GOMAXPROCS threads recording
// accesses concurrently, each from its own goroutine as the Runtime
// contract requires. Before the per-thread intern caches this serialized
// on internMu twice per access.
func BenchmarkRecordAccessParallel(b *testing.B) {
	rt := race.NewRuntime()
	workers := runtime.GOMAXPROCS(0)
	tids := make([]race.Tid, workers)
	for i := range tids {
		tids[i] = rt.Go(rt.Main())
	}
	per := b.N/workers + 1
	var keys [64]int
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t race.Tid) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rt.Read(t, &keys[i&63])
				if i%syncEvery == syncEvery-1 {
					rt.VolatileWrite(t, t) // per-thread volatile: drains the buffer
				}
			}
		}(tids[w])
	}
	wg.Wait()
	b.StopTimer()
	reportEventsPerSec(b, per*workers)
	if err := rt.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecordLockedSections measures the sync-point path: acquire,
// two accesses, release — every pair of events committing the thread's
// buffer into the global linearization.
func BenchmarkRecordLockedSections(b *testing.B) {
	rt := race.NewRuntime()
	t0 := rt.Main()
	var lock, x int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Acquire(t0, &lock)
		rt.Read(t0, &x)
		rt.Write(t0, &x)
		rt.Release(t0, &lock)
	}
	b.StopTimer()
	reportEventsPerSec(b, 4*b.N)
	if err := rt.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecordLockedSectionsParallel is the contended variant:
// GOMAXPROCS threads taking turns on one lock.
func BenchmarkRecordLockedSectionsParallel(b *testing.B) {
	rt := race.NewRuntime()
	workers := runtime.GOMAXPROCS(0)
	tids := make([]race.Tid, workers)
	for i := range tids {
		tids[i] = rt.Go(rt.Main())
	}
	per := b.N/workers + 1
	var lock, x int
	var mu sync.Mutex // real exclusion so the recorded sections are legal
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t race.Tid) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mu.Lock()
				rt.Acquire(t, &lock)
				rt.Read(t, &x)
				rt.Write(t, &x)
				rt.Release(t, &lock)
				mu.Unlock()
			}
		}(tids[w])
	}
	wg.Wait()
	b.StopTimer()
	reportEventsPerSec(b, 4*per*workers)
	if err := rt.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecordAnalyzeAttached measures the one-pass record-and-analyze
// path: accesses recorded into per-thread buffers, committed to an
// attached SmartTrack-WDC engine at every sync point. Since PR 4 each
// committed run enters the engine through one FeedBatch call instead of
// event-at-a-time Feed — the feed-side batching that raced's ingestion
// path shares.
func BenchmarkRecordAnalyzeAttached(b *testing.B) {
	eng, err := race.NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	rt := race.NewRuntime(race.WithEngineAttached(eng))
	t0 := rt.Main()
	var keys [64]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Read(t0, &keys[i&63])
		if i%syncEvery == syncEvery-1 {
			rt.VolatileWrite(t0, &keys)
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, b.N)
	if err := rt.Err(); err != nil {
		b.Fatal(err)
	}
}
