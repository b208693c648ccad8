package unopt

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/workload"
)

// bits is a set of trace indices.
type bits []uint64

func (b bits) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// reaching returns, for every event of evs, the set of events that reach it
// over the edges pred gives and program order, the event itself included.
// Every edge points forward in the trace, so one pass in trace order closes
// each set.
func reaching(t testing.TB, evs []trace.Event, pred func(i int32) []int32) []bits {
	t.Helper()
	words := (len(evs) + 63) / 64
	sets := make([]bits, len(evs))
	prev := map[trace.Tid]int{} // each thread's latest event
	for i, e := range evs {
		set := make(bits, words)
		set[i/64] |= 1 << (i % 64)
		from := pred(int32(i))
		if j, ok := prev[e.T]; ok {
			from = append(from[:len(from):len(from)], int32(j))
		}
		for _, j := range from {
			if int(j) >= i {
				t.Fatalf("edge %d → %d points back in the trace", j, i)
			}
			for w, b := range sets[j] {
				set[w] |= b
			}
		}
		prev[e.T] = i
		sets[i] = set
	}
	return sets
}

// teeHook is a Hook that records every edge it is handed, unfiltered, and
// hands each on to the graph.
type teeHook struct {
	g   *graph.Graph
	all map[int32][]int32 // dst → every source drawn into it
	n   int
}

func (h *teeHook) Edge(src, dst int32, from, to trace.Tid) {
	h.all[dst] = append(h.all[dst], src)
	h.n++
	h.g.Edge(src, dst, from, to)
}

// checkGraphReachability runs relation rel's Unopt w/G analysis over evs
// with a teeHook between its analysis and its graph. Every edge the graph
// keeps must be one the analysis drew, and at every event the same events
// must reach it over the kept edges (Pred) and program order as over every
// edge drawn. It returns the number of edges the graph left out.
func checkGraphReachability(t testing.TB, id string, evs []trace.Event, rel analysis.Relation) int {
	t.Helper()
	sub := ccs.NewSubstrate(rel, true)
	tee := &teeHook{g: sub.Graph(), all: map[int32][]int32{}}
	sub.SetHook(tee)
	a := &Analysis{*NewView(sub)}
	a.HandleRun(evs, nil)
	g := a.Graph()
	for _, e := range g.Edges() {
		if !slices.Contains(tee.all[e[1]], e[0]) {
			t.Fatalf("%s: kept edge %v is not one the analysis drew", id, e)
		}
	}
	gs, ws := reaching(t, evs, g.Pred), reaching(t, evs, func(i int32) []int32 { return tee.all[i] })
	for i := range evs {
		if !slices.Equal(gs[i], ws[i]) {
			t.Fatalf("%s: the events reaching event %d (%+v) over the kept edges differ from those over every edge drawn", id, i, evs[i])
		}
	}
	return tee.n - g.Len()
}

// syncOnly is a random well-formed trace of lock and volatile events alone:
// the operation mix leaves accesses no share.
func syncOnly(seed int64, threads, locks, volatiles, events, depth int, forkJoin bool) []trace.Event {
	return workload.Random(workload.RandomConfig{
		Seed: seed, Threads: threads, Locks: locks, Volatiles: 1 + volatiles, Events: events,
		MaxDepth: depth, ForkJoin: forkJoin, PAcquire: 0.4, PRelease: 0.4, PVolatile: 0.2,
	}).Events
}

var graphRelations = []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC}

// TestGraphEdgesKeepReachability holds the graphs of the WCP, DC and WDC
// w/G analyses — every edge kind, last-writer edges included — to every
// edge their analyses draw: the kept edges are a subset of them, every
// event is reached by the same events over Pred and program order, and each
// case leaves edges out. Inputs: random traces with accesses, fork/join,
// volatiles and nesting, and lock and volatile traces.
func TestGraphEdgesKeepReachability(t *testing.T) {
	traces := map[string][]trace.Event{}
	for seed := int64(1); seed <= 6; seed++ {
		traces[fmt.Sprintf("sync-%d", seed)] = syncOnly(seed, 2+int(seed), 1+int(seed%3), int(seed%3), 2000, 1+int(seed%3), seed%2 == 1)
		traces[fmt.Sprintf("random-%d", seed)] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 2 + int(seed%5), Vars: 3 + int(seed%4), Locks: 1 + int(seed%3),
			Events: 2000, ForkJoin: seed%2 == 0, Volatiles: int(seed % 3), MaxDepth: 1 + int(seed%3),
		}).Events
	}
	for name, evs := range traces {
		for _, rel := range graphRelations {
			id := fmt.Sprintf("%s/%v", name, rel)
			if dropped := checkGraphReachability(t, id, evs, rel); dropped == 0 {
				t.Errorf("%s: no edge left out: the case exercised nothing", id)
			}
		}
	}
}

// FuzzGraphEdgeReachability drives the reachability check over a random
// trace or a lock and volatile trace, on a budget of at most 2,000 events.
func FuzzGraphEdgeReachability(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint16(2000), uint8(3), true, false)
	f.Add(int64(7), uint8(8), uint8(2), uint8(1), uint8(0), uint16(1500), uint8(1), false, true)
	f.Add(int64(42), uint8(3), uint8(12), uint8(5), uint8(3), uint16(1000), uint8(4), true, true)
	f.Fuzz(func(t *testing.T, seed int64, threads, vars, locks, volatiles uint8, events uint16, depth uint8, forkJoin, sync bool) {
		n := int(events % 2001)
		evs := syncOnly(seed, 1+int(threads%10), 1+int(locks%6), int(volatiles%4), n, 1+int(depth%4), forkJoin)
		if !sync {
			evs = workload.Random(workload.RandomConfig{
				Seed: seed, Threads: 1 + int(threads%10), Vars: 1 + int(vars%16), Locks: 1 + int(locks%6),
				Volatiles: int(volatiles % 4), Events: n, MaxDepth: 1 + int(depth%4), ForkJoin: forkJoin,
			}).Events
		}
		for _, rel := range graphRelations {
			checkGraphReachability(t, rel.String(), evs, rel)
		}
	})
}
