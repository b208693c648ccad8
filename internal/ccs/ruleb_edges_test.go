package ccs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reaching returns, for every event of evs, the set of events that reach it
// over the edges pred gives and program order, the event itself included, as
// a bitset over trace indices. Every edge points forward in the trace, so one
// pass in trace order closes each set.
func reaching(t testing.TB, evs []trace.Event, pred func(i int32) []int32) [][]uint64 {
	words := (len(evs) + 63) / 64
	sets := make([][]uint64, len(evs))
	prev := map[trace.Tid]int{} // each thread's latest event
	for i, e := range evs {
		set := make([]uint64, words)
		set[i/64] |= 1 << (i % 64)
		from := pred(int32(i))
		if j, ok := prev[e.T]; ok {
			from = append(from[:len(from):len(from)], int32(j))
		}
		for _, j := range from {
			if int(j) >= i {
				t.Fatalf("edge %d → %d points back in the trace", j, i)
			}
			for w, bits := range sets[j] {
				set[w] |= bits
			}
		}
		prev[e.T] = i
		sets[i] = set
	}
	return sets
}

// rows returns the predecessor lists of an edge list.
func (l edgeList) rows() func(i int32) []int32 {
	rows := map[int32][]int32{}
	for _, e := range l {
		rows[e[1]] = append(rows[e[1]], e[0])
	}
	return func(i int32) []int32 { return rows[i] }
}

// checkEdgeReachability runs relation rel's substrate over evs, its rule (b)
// log with epoch acquires when epochAcq is set, beside the reference
// substrate drawing the paper's rule (b) edge per consumed entry into an
// unfiltered hook, both with rule (a) at every access. Every edge the
// substrate's graph keeps must be one the reference draws, and at every
// event the same events must reach it in both. It returns the number of
// edges the graph left out.
func checkEdgeReachability(t testing.TB, id string, evs []trace.Event, rel analysis.Relation, epochAcq bool) int {
	t.Helper()
	sub, ref := NewSubstrate(rel, true), NewRefSubstrate(rel, true)
	if epochAcq {
		sub.rb = NewRuleB(rel, true)
		sub.lt.log = sub.rb
		ref.rb.epochAcq = true
	}
	ref.rb.everyEntry = true
	var all edgeList
	ref.Sub.SetHook(&all)
	views := []View{everyAccess{}}
	g := NewGroup(sub, views, 0)
	for _, e := range evs {
		g.Handle(e)
		ref.Handle(e, views, 0)
	}
	got := sub.Graph()
	drawn := map[[2]int32]bool{}
	for _, e := range all {
		drawn[[2]int32{e[0], e[1]}] = true
	}
	for _, e := range got.Edges() {
		if !drawn[e] {
			t.Fatalf("%s: edge %v is not one the every-entry rule draws", id, e)
		}
	}
	gs, ws := reaching(t, evs, got.Pred), reaching(t, evs, all.rows())
	for i := range evs {
		if !slices.Equal(gs[i], ws[i]) {
			t.Fatalf("%s: the events reaching event %d (%+v) differ from the every-entry graph's", id, i, evs[i])
		}
	}
	return len(all) - got.Len()
}

// edgeCases are the rule (b) logs that draw graphs: WCP's and DC's
// substrates (DC's with vector acquires), and a DC log with epoch acquires,
// whose caught-up test differs.
var edgeCases = []struct {
	rel      analysis.Relation
	epochAcq bool
}{{analysis.WCP, true}, {analysis.DC, false}, {analysis.DC, true}}

// TestRuleBEdgesKeepReachability holds RuleB's rule (b) edges — one per
// owner from the last entry a release consumed, kept by the graph unless
// program order and an earlier edge into the thread imply them — to the
// paper's one per consumed entry: a subset that leaves every event reached
// by the same events over edges and program order, which is all
// vindication reads of a graph. Inputs: lock and
// volatile streams whose threads appear mid-stream, and random traces with
// accesses, fork/join and nesting; each case must leave edges out.
func TestRuleBEdgesKeepReachability(t *testing.T) {
	traces := map[string][]trace.Event{}
	for seed := int64(1); seed <= 6; seed++ {
		traces[fmt.Sprintf("sync-%d", seed)] = syncOnly(seed, 2+int(seed), 1+int(seed%3), 2000, 100)
		traces[fmt.Sprintf("random-%d", seed)] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 2 + int(seed%5), Vars: 3 + int(seed%4), Locks: 1 + int(seed%3),
			Events: 2000, ForkJoin: seed%2 == 0, Volatiles: int(seed % 3), MaxDepth: 1 + int(seed%3),
		}).Events
	}
	for _, tc := range edgeCases {
		dropped := 0
		for name, evs := range traces {
			dropped += checkEdgeReachability(t, fmt.Sprintf("%s/%v epochAcq=%v", name, tc.rel, tc.epochAcq), evs, tc.rel, tc.epochAcq)
		}
		if dropped == 0 {
			t.Errorf("%v epochAcq=%v: no edge left out on any trace: the test exercised nothing", tc.rel, tc.epochAcq)
		}
	}
}

// FuzzRuleBEdgeReachability drives the reachability check over a lock and
// volatile stream (vars sets how many events apart its threads appear) or a
// random trace, on a budget of at most 2,000 events.
func FuzzRuleBEdgeReachability(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint16(2000), uint8(3), true, false)
	f.Add(int64(7), uint8(8), uint8(2), uint8(1), uint8(0), uint16(1500), uint8(1), false, true)
	f.Add(int64(42), uint8(3), uint8(12), uint8(5), uint8(3), uint16(1000), uint8(4), true, true)
	f.Fuzz(func(t *testing.T, seed int64, threads, vars, locks, volatiles uint8, events uint16, depth uint8, forkJoin, sync bool) {
		n := int(events % 2001)
		evs := syncOnly(seed, 1+int(threads%10), 1+int(locks%6), n, 1+int(vars)*4)
		if !sync {
			evs = workload.Random(workload.RandomConfig{
				Seed: seed, Threads: 1 + int(threads%10), Vars: 1 + int(vars%16), Locks: 1 + int(locks%6),
				Volatiles: int(volatiles % 4), Events: n, MaxDepth: 1 + int(depth%4), ForkJoin: forkJoin,
			}).Events
		}
		for _, tc := range edgeCases {
			checkEdgeReachability(t, fmt.Sprintf("%v epochAcq=%v", tc.rel, tc.epochAcq), evs, tc.rel, tc.epochAcq)
		}
	})
}
