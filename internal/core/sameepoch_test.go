package core

import (
	"fmt"
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
// SmartTrack at each relation beside an analysis.SameEpoch: at every event
// the marker flags, SmartTrack's own same-epoch cases must skip the access.
func TestMarkedAccessesAreSameEpoch(t *testing.T) {
	marked := 0
	for name, tr := range sameEpochStreams() {
		for _, rel := range stRelations {
			a := New(rel, analysis.SpecOf(tr))
			var m analysis.SameEpoch
			same := analysis.Same(nil).Cover(1)
			for i, e := range tr.Events {
				same[0] = 0
				m.Mark(tr.Events[i:i+1], same, 0)
				if same.Has(0) {
					marked++
					if !a.SameEpoch(e) {
						t.Fatalf("%s/%v: event %d (%v) is marked, but SmartTrack would not skip it", name, rel, i, e)
					}
				}
				a.Handle(e)
			}
		}
	}
	if marked == 0 {
		t.Fatal("nothing was marked; the differential is vacuous")
	}
}

// TestHandleRunCountsMarkedAccesses: fed in runs with the marker's bitmap,
// SmartTrack reports the races and case counts it reports fed one event at
// a time with none.
func TestHandleRunCountsMarkedAccesses(t *testing.T) {
	for name, tr := range sameEpochStreams() {
		for _, rel := range stRelations {
			one, runs := New(rel, analysis.SpecOf(tr)), New(rel, analysis.Spec{})
			analysis.Run(one, tr)
			var m analysis.SameEpoch
			var same analysis.Same
			for lo := 0; lo < len(tr.Events); lo += 700 {
				run := tr.Events[lo:min(lo+700, len(tr.Events))]
				same = same[:0].Cover(len(run))
				m.Mark(run, same, 0)
				runs.HandleRun(run, same)
			}
			if *one.Cases() != *runs.Cases() {
				t.Errorf("%s/%v: cases %+v in marked runs, %+v one at a time", name, rel, *runs.Cases(), *one.Cases())
			}
			if one.Races().Dynamic() != runs.Races().Dynamic() {
				t.Errorf("%s/%v: %d races in marked runs, %d one at a time", name, rel, runs.Races().Dynamic(), one.Races().Dynamic())
			}
		}
	}
}
