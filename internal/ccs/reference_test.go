package ccs_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/fto"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/unopt"
	"repro/internal/vc"
	"repro/internal/workload"
)

// equal reports whether two clocks are equal as maps: trailing zeros are
// not a difference, and a skipped join may leave a clock shorter.
func equal(a, b *vc.VC) bool { return a.Leq(b) && b.Leq(a) }

func collector(v ccs.View) *report.Collector {
	return v.(interface{ Races() *report.Collector }).Races()
}

// diffReference runs relation rel's substrate, under an FTO and an Unopt
// w/G view, beside the reference substrate (join-everything rule (a) and
// rule (b)) under the same two views. It fails at the first event after
// which any thread's P, H or WCP self-knowledge (selfP), the graph's edge
// count or a view's race count differs; at the end the graphs must be edge
// for edge, and the reports race for race, the same.
func diffReference(t testing.TB, id string, tr *trace.Trace, rel analysis.Relation) {
	t.Helper()
	sub, ref := ccs.NewSubstrate(rel, true), ccs.NewRefSubstrate(rel, true)
	gv := []ccs.View{fto.NewView(sub), unopt.NewView(sub)}
	rv := []ccs.View{fto.NewView(ref.Sub), unopt.NewView(ref.Sub)}
	g := ccs.NewGroup(sub, gv, 1)
	for i, e := range tr.Events {
		g.Handle(e)
		ref.Handle(e, rv, 1)
		if len(sub.P) != len(ref.Sub.P) {
			t.Fatalf("%s: after event %d the substrate knows %d threads, the reference %d", id, i, len(sub.P), len(ref.Sub.P))
		}
		for u := range sub.P {
			if !equal(sub.P[u], ref.Sub.P[u]) {
				t.Fatalf("%s: after event %d (%+v) P[%d] = %v, reference %v", id, i, e, u, sub.P[u], ref.Sub.P[u])
			}
			if sub.H != nil && !equal(sub.H[u], ref.Sub.H[u]) {
				t.Fatalf("%s: after event %d (%+v) H[%d] = %v, reference %v", id, i, e, u, sub.H[u], ref.Sub.H[u])
			}
			if got, want := ccs.SelfP(&sub.SyncState, u), ccs.SelfP(&ref.Sub.SyncState, u); got != want {
				t.Fatalf("%s: after event %d (%+v) selfP[%d] = %d, reference %d", id, i, e, u, got, want)
			}
		}
		if got, want := sub.Graph().Len(), ref.Sub.Graph().Len(); got != want {
			t.Fatalf("%s: after event %d the graph has %d edges, the reference's %d", id, i, got, want)
		}
		for k := range gv {
			if got, want := collector(gv[k]).Dynamic(), collector(rv[k]).Dynamic(); got != want {
				t.Fatalf("%s: after event %d view %d has reported %d races, the reference's %d", id, i, k, got, want)
			}
		}
	}
	if got, want := sub.Graph().Edges(), ref.Sub.Graph().Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the graphs hold the same number of edges, but not the same edges", id)
	}
	for k := range gv {
		if got, want := collector(gv[k]).Races(), collector(rv[k]).Races(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: view %d reports %v, the reference's %v", id, k, got, want)
		}
	}
}

var predictive = []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC}

// TestSubstrateMatchesReference holds the WCP, DC and WDC substrates — whose
// rule (a) cells name logged clocks and whose rule (a) and rule (b) skip
// release times the thread already holds — to the join-everything reference
// after every event: P and H of every thread, the rule (a)/(b) graph edges,
// and both views' reports. Inputs: random traces with fork/join and
// volatiles, and slices of the three generator programs whose locking is
// densest.
func TestSubstrateMatchesReference(t *testing.T) {
	traces := map[string]*trace.Trace{}
	for seed := int64(0); seed < 24; seed++ {
		traces[fmt.Sprintf("random-%d", seed)] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 2 + int(seed%6), Vars: 3 + int(seed%5), Locks: 1 + int(seed%4),
			Events: 2500, ForkJoin: seed%2 == 0, Volatiles: int(seed % 3),
		})
	}
	for _, name := range []string{"h2", "luindex", "xalan"} {
		p, _ := workload.ProgramByName(name)
		for seed := int64(1); seed <= 2; seed++ {
			traces[fmt.Sprintf("%s-%d", name, seed)] = p.Generate(100000, seed)
		}
	}
	for name, tr := range traces {
		for _, rel := range predictive {
			diffReference(t, fmt.Sprintf("%s/%v", name, rel), tr, rel)
		}
	}
}

// FuzzReleaseSnapshots drives the reference differential over the
// workload.RandomConfig tuple: thread, variable, lock and volatile counts,
// event budget, nesting depth and fork/join.
func FuzzReleaseSnapshots(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint16(2000), uint8(3), true)
	f.Add(int64(7), uint8(8), uint8(2), uint8(1), uint8(0), uint16(3000), uint8(1), false)
	f.Add(int64(42), uint8(3), uint8(12), uint8(5), uint8(3), uint16(1500), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, threads, vars, locks, volatiles uint8, events uint16, depth uint8, forkJoin bool) {
		tr := workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 1 + int(threads%10), Vars: 1 + int(vars%16), Locks: 1 + int(locks%6),
			Volatiles: int(volatiles % 4), Events: int(events % 4000), MaxDepth: 1 + int(depth%4), ForkJoin: forkJoin,
		})
		for _, rel := range predictive {
			diffReference(t, rel.String(), tr, rel)
		}
	})
}
