package race

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ccs"
	"repro/internal/graph"
	"repro/internal/workload"
)

// graphOf returns the constraint graph computation c builds, if any, through
// the accessor a caller of its cell would use: the w/G cell's own, or the
// shared substrate's.
func graphOf(c *computation) *graph.Graph {
	switch a := c.a.(type) {
	case interface{ Graph() *graph.Graph }:
		return a.Graph()
	case *ccs.Group:
		sub := reflect.ValueOf(a).Elem().FieldByName("sub")
		return (*ccs.Substrate)(sub.UnsafePointer()).Graph()
	}
	return nil
}

// TestGraphNIsEventsFed: no analysis tells the graph about an event that
// draws no edge any more, so N is settled where the graph is handed out. It
// must equal the events fed — mid-stream and after a tail of 150 same-epoch
// reads that draw nothing — for the three w/G cells alone and inside the
// 15-cell matrix, sequential and pipelined; and a graph handed out
// mid-stream, predecessor index built, still shows the edges drawn after.
func TestGraphNIsEventsFed(t *testing.T) {
	tr := workload.Random(workload.RandomConfig{Seed: 5, Threads: 4, Vars: 6, Locks: 3, Volatiles: 1, Events: 4000, ForkJoin: true})
	body := len(tr.Events)
	for i := 0; i < 150; i++ {
		tr.Events = append(tr.Events, Event{T: 0, Op: OpRead, Targ: 0, Loc: 1})
	}
	wg := []string{"Unopt-WCP w/G", "Unopt-DC w/G", "Unopt-WDC w/G"}
	for _, names := range [][]string{wg, Detectors()} {
		for _, par := range []int{1, 2} {
			eng, err := NewEngine(WithAnalysisNames(names...), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			feed := func(evs []Event) {
				t.Helper()
				if err := eng.FeedBatch(evs); err != nil {
					t.Fatal(err)
				}
				if err := eng.Sync(); err != nil { // pipeline workers are idle from here on
					t.Fatal(err)
				}
			}
			feed(tr.Events[:body/2])
			var early []*graph.Graph
			for ci := range eng.comps {
				if g := graphOf(&eng.comps[ci]); g != nil {
					if g.N != eng.Fed() {
						t.Errorf("%d cells, parallelism %d, %s: mid-stream N = %d after %d events", len(names), par, eng.comps[ci].name, g.N, eng.Fed())
					}
					g.Pred(0) // builds the index the later edges must invalidate
					early = append(early, g)
				}
			}
			if len(early) != len(wg) {
				t.Fatalf("%d cells: found %d graphs, want %d", len(names), len(early), len(wg))
			}
			feed(tr.Events[body/2:])
			for _, g := range early {
				edges := g.Edges()
				last := edges[len(edges)-1]
				if int(last[1]) < body/2 || len(tr.Events)-int(last[1]) <= 100 {
					t.Fatalf("last edge %v: the trace must draw edges after event %d and none over its last 100", last, body/2)
				}
				if !slices.Contains(g.Pred(last[1]), last[0]) {
					t.Errorf("%d cells, parallelism %d: edge %v, drawn after the index was built, is not in Pred", len(names), par, last)
				}
			}
			for ci := range eng.comps {
				if g := graphOf(&eng.comps[ci]); g != nil && (g.N != eng.Fed() || g.N != len(tr.Events)) {
					t.Errorf("%d cells, parallelism %d, %s: N = %d, fed %d of %d events", len(names), par, eng.comps[ci].name, g.N, eng.Fed(), len(tr.Events))
				}
			}
			if _, err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
