package ccs_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/ft"
	"repro/internal/fto"
	"repro/internal/trace"
	"repro/internal/unopt"
	"repro/internal/workload"
)

func groupTraces() map[string]*trace.Trace {
	out := make(map[string]*trace.Trace)
	for _, name := range []string{"h2", "xalan", "avrora"} {
		p, _ := workload.ProgramByName(name)
		out[name] = p.Generate(200000, 3)
	}
	for seed := int64(0); seed < 4; seed++ {
		out[fmt.Sprintf("random-%d", seed)] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 5, Vars: 6, Locks: 3, Events: 3000, ForkJoin: seed%2 == 0, Volatiles: 1,
		})
	}
	return out
}

// sameClocks fails unless the two substrates hold the same P for every
// thread (⊑ both ways: a clock's trailing zeros are not a difference).
func sameClocks(t *testing.T, id string, i int, got, want *ccs.Substrate) {
	t.Helper()
	if len(got.P) != len(want.P) {
		t.Fatalf("%s: after event %d the grouped substrate knows %d threads, standalone %d", id, i, len(got.P), len(want.P))
	}
	for u := range want.P {
		if !got.P[u].Leq(want.P[u]) || !want.P[u].Leq(got.P[u]) {
			t.Fatalf("%s: after event %d grouped P[%d] = %v, standalone has %v", id, i, u, got.P[u], want.P[u])
		}
	}
}

// TestGroupedSubstrateMatchesStandalone pins the four-point argument on
// Substrate: one substrate under an FTO and an Unopt view holds, after
// every event, the P that standalone FTO-X and standalone Unopt-X each
// compute on private state; both views report the standalone cells' races;
// and the grouped graph is edge for edge the one standalone Unopt-X w/G
// builds. HB runs its three levels the same way.
func TestGroupedSubstrateMatchesStandalone(t *testing.T) {
	for name, tr := range groupTraces() {
		for _, spec := range []analysis.Spec{analysis.SpecOf(tr), {}} {
			for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
				id := fmt.Sprintf("%s/%v (hints %v)", name, rel, spec.Events > 0)
				sub := ccs.NewSubstrate(rel, spec, true)
				fv, uv := fto.NewView(sub, spec), unopt.NewView(sub, spec)
				g := ccs.NewGroup(sub, []ccs.View{fv, uv}, 1)
				f, u, ug := fto.New(rel, spec), unopt.NewPredictive(rel, spec, false), unopt.NewPredictive(rel, spec, true)
				for i, e := range tr.Events {
					g.Handle(e)
					f.Handle(e)
					u.Handle(e)
					ug.Handle(e)
					sameClocks(t, id+" vs FTO", i, sub, f.Sub)
					sameClocks(t, id+" vs Unopt", i, sub, u.Sub)
				}
				if !reflect.DeepEqual(fv.Races().Races(), f.Races().Races()) {
					t.Errorf("%s: grouped FTO view and standalone FTO report different races", id)
				}
				if !reflect.DeepEqual(uv.Races().Races(), u.Races().Races()) || !reflect.DeepEqual(uv.Races().Races(), ug.Races().Races()) {
					t.Errorf("%s: grouped Unopt view and standalone Unopt (w/G or not) report different races", id)
				}
				if got, want := sub.Graph(), ug.Graph(); got.N != want.N || !reflect.DeepEqual(got.Edges(), want.Edges()) {
					t.Errorf("%s: grouped graph has %d events and %d edges, standalone w/G %d and %d (or they differ in order)",
						id, got.N, got.Len(), want.N, want.Len())
				}
			}

			id := fmt.Sprintf("%s/HB (hints %v)", name, spec.Events > 0)
			sub := ccs.NewSubstrate(analysis.HB, spec, false)
			v2, vo, vu := ft.NewView(sub, spec), fto.NewView(sub, spec), unopt.NewView(sub, spec)
			g := ccs.NewGroup(sub, []ccs.View{v2, vo, vu}, 2)
			a2, ao, au := ft.New(spec), fto.New(analysis.HB, spec), unopt.NewHB(spec)
			for i, e := range tr.Events {
				g.Handle(e)
				a2.Handle(e)
				ao.Handle(e)
				au.Handle(e)
				sameClocks(t, id+" vs FT2", i, sub, a2.Sub)
				sameClocks(t, id+" vs FTO", i, sub, ao.Sub)
				sameClocks(t, id+" vs Unopt", i, sub, au.Sub)
			}
			if !reflect.DeepEqual(v2.Races().Races(), a2.Races().Races()) ||
				!reflect.DeepEqual(vo.Races().Races(), ao.Races().Races()) ||
				!reflect.DeepEqual(vu.Races().Races(), au.Races().Races()) {
				t.Errorf("%s: a grouped HB view and its standalone cell report different races", id)
			}
		}
	}
}
