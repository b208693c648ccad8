// Pipeline: a fork/join worker pool with a volatile (atomic) stop flag,
// instrumented with race.Runtime and analyzed ONLINE: a streaming Engine
// attached to the Runtime consumes events as the program executes —
// record-and-analyze in one pass, the way the paper's analyses run inside
// RoadRunner — with four analyses fanned out over the single stream. The
// work-item hand-offs are properly synchronized and stay silent under
// every analysis; a results counter that workers bump without a lock
// races, and every analysis flags it online, while the pool is still
// processing items.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/race"
)

const workers = 3

func main() {
	eng, err := race.NewEngine(
		race.WithAnalysisNames("FTO-HB", "ST-WCP", "ST-DC", "ST-WDC"),
		race.WithOnRace(func(r race.RaceInfo) {
			fmt.Printf("online: %s flags var %d while the pipeline is still running\n",
				r.Analysis, r.Var)
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	rt := race.NewRuntime(race.WithEngineAttached(eng))
	main := rt.Main()

	var (
		queueMu  sync.Mutex
		queue    []int
		stop     atomic.Bool
		results  int // BUG: updated by workers without a lock
		resultMu sync.Mutex
	)

	// Seed the queue from the main thread before forking — ordered by fork.
	rt.Write(main, &queue)
	queue = append(queue, 1, 2, 3, 4, 5, 6)

	var wg sync.WaitGroup
	tids := make([]race.Tid, workers)
	turn := make(chan int, 1) // deterministic demo schedule (not program sync)
	for w := 0; w < workers; w++ {
		tids[w] = rt.Go(main)
		wg.Add(1)
		go func(me race.Tid, w int) {
			defer wg.Done()
			for range [2]struct{}{} {
				<-turn
				if stop.Load() {
					rt.VolatileRead(me, &stop)
					turn <- w + 1
					return
				}
				rt.VolatileRead(me, &stop)
				// Properly locked queue pop: never races.
				rt.Locked(me, &queueMu, func() {
					queueMu.Lock()
					rt.Read(me, &queue)
					rt.Write(me, &queue)
					if len(queue) > 0 {
						queue = queue[1:]
					}
					queueMu.Unlock()
				})
				// The bug: the shared results counter is read-modify-written
				// without resultMu.
				rt.Read(me, &results)
				rt.Write(me, &results)
				results++
				turn <- w + 1
			}
		}(tids[w], w)
	}
	turn <- 0
	wg.Wait()
	<-turn

	rt.VolatileWrite(main, &stop)
	stop.Store(true)
	for _, t := range tids {
		rt.Join(main, t)
	}
	rt.Locked(main, &resultMu, func() {
		resultMu.Lock()
		rt.Read(main, &results)
		fmt.Printf("pipeline processed, results counter = %d\n", results)
		resultMu.Unlock()
	})

	// The engine has been analyzing all along; Finish closes the stream and
	// returns every analysis's verdict from the single pass.
	rep, err := rt.Finish()
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range rep.Analyses() {
		sub, _ := rep.ByAnalysis(name)
		fmt.Printf("%-7s %d statically distinct race(s), %d dynamic\n",
			name, sub.Static(), sub.Dynamic())
	}
	fmt.Println("\nThe queue hand-offs (locked) and the stop flag (volatile) are race-free;")
	fmt.Println("every reported race is the unlocked `results` counter.")
}
