package unopt

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sameEpochStreams are the streams the same-epoch differential runs over:
// the ten generator programs at a small scale, seeds 1–3, random traces
// with and without fork/join, and one trace that puts every kind of
// synchronisation between two same-kind accesses of one thread (the
// generators fork, join and initialise classes only in their prologues).
func sameEpochStreams() map[string]*trace.Trace {
	out := make(map[string]*trace.Trace)
	for _, p := range workload.Programs {
		for seed := int64(1); seed <= 3; seed++ {
			out[fmt.Sprintf("%s/%d", p.Name, seed)] = p.Generate(400000, seed)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		out[fmt.Sprintf("random/%d", seed)] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 4, Vars: 5, Locks: 3, Volatiles: 2, Events: 3000, ForkJoin: seed%2 == 0,
		})
	}
	b := trace.NewBuilder()
	b.Read("T0", "x").Acq("T0", "m").Read("T0", "x").
		Write("T0", "x").Rel("T0", "m").Write("T0", "x").
		Read("T0", "x").Fork("T0", "T1").Read("T0", "x").Write("T1", "y").
		Write("T0", "x").Join("T0", "T1").Write("T0", "x").
		Read("T0", "x").VolRead("T0", "v").Read("T0", "x").
		Write("T0", "x").VolWrite("T0", "v").Write("T0", "x").
		Read("T0", "x").ClassInit("T0", "c").Read("T0", "x").
		Write("T0", "x").ClassAccess("T0", "c").Write("T0", "x").
		Read("T0", "x").Read("T0", "x") // marked: the differential's one certain hit
	out["every-sync"] = b.Build()
	return out
}

// TestMarkedAccessesAreSameEpoch feeds every stream one event at a time to
// the unoptimized analysis of each relation beside an analysis.SameEpoch:
// at every event the marker flags, the §5.1 check (Stale) must skip the
// access, and HandleRun is given the marker's bitmap for it.
func TestMarkedAccessesAreSameEpoch(t *testing.T) {
	marked := 0
	for name, tr := range sameEpochStreams() {
		for _, rel := range analysis.Relations {
			a := NewHB()
			if rel != analysis.HB {
				a = NewPredictive(rel, true)
			}
			var m analysis.SameEpoch
			same := analysis.Same(nil).Cover(1)
			for i, e := range tr.Events {
				same[0] = 0
				m.Mark(tr.Events[i:i+1], same, 0)
				if same.Has(0) {
					marked++
					if a.Stale(e.T, e.Targ, e.Op == trace.OpWrite) {
						t.Fatalf("%s/%v: event %d (%v) is marked, but Unopt would not skip it", name, rel, i, e)
					}
				}
				a.HandleRun(tr.Events[i:i+1], same)
			}
		}
	}
	if marked == 0 {
		t.Fatal("nothing was marked; the differential is vacuous")
	}
}

// runCuts are the run lengths the run-loop differential cuts a stream into;
// 0 stands for the whole stream in one run.
var runCuts = []int{1, 7, 8192, 0}

// feedRuns feeds evs to a in runs of n events (all of them if n is 0),
// each with the marker's bitmap if marked, else with nil.
func feedRuns(a analysis.Analysis, evs []trace.Event, n int, marked bool) {
	if n == 0 {
		n = len(evs)
	}
	var m analysis.SameEpoch
	var same analysis.Same
	for lo := 0; lo < len(evs); lo += n {
		run := evs[lo:min(lo+n, len(evs))]
		if !marked {
			a.HandleRun(run, nil)
			continue
		}
		same = same[:0].Cover(len(run))
		m.Mark(run, same, 0)
		a.HandleRun(run, same)
	}
}

// TestHandleRunCountsMarkedAccesses is the run-loop differential: however
// a stream is cut into runs (runCuts), and whether HandleRun is given the
// marker's bitmap or nil, the unoptimized analysis of each relation, w/G or
// not, reports the same races and metadata weight.
func TestHandleRunCountsMarkedAccesses(t *testing.T) {
	build := func(rel analysis.Relation, g bool) *Analysis {
		if rel == analysis.HB {
			return NewHB()
		}
		return NewPredictive(rel, g)
	}
	for name, tr := range sameEpochStreams() {
		for _, rel := range analysis.Relations {
			for _, g := range []bool{false, true} {
				want := build(rel, g)
				feedRuns(want, tr.Events, 1, false)
				for _, n := range runCuts {
					for _, marked := range []bool{false, true} {
						a := build(rel, g)
						feedRuns(a, tr.Events, n, marked)
						id := fmt.Sprintf("%s/%v (graph %v) in runs of %d (marked %v)", name, rel, g, n, marked)
						if !reflect.DeepEqual(a.Races().Races(), want.Races().Races()) {
							t.Errorf("%s: races %v, one unmarked event at a time %v", id, a.Races().Races(), want.Races().Races())
						}
						if a.MetadataWeight() != want.MetadataWeight() {
							t.Errorf("%s: metadata weight %d, one unmarked event at a time %d", id, a.MetadataWeight(), want.MetadataWeight())
						}
					}
				}
			}
		}
	}
}
