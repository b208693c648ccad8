package race_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/race"
)

// groupedTraces is the spread the grouped ≡ standalone differential runs
// over: generator programs (avrora, xalan and pmd seed races), random and
// channel traces, and a trace whose threads appear mid-stream without a
// fork, long after the engine was built.
func groupedTraces(t *testing.T) map[string]*race.Trace {
	t.Helper()
	out := make(map[string]*race.Trace)
	for _, name := range []string{"avrora", "xalan", "pmd", "h2"} {
		p, ok := workload.ProgramByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		out[name] = p.Generate(400000, 5)
	}
	out["random"] = workload.Random(workload.RandomConfig{
		Seed: 11, Threads: 5, Vars: 6, Locks: 3, Events: 2500, ForkJoin: true, Volatiles: 2,
	})
	out["channels"] = workload.Channels(workload.ChannelsConfig{
		Seed: 12, Threads: 5, Chans: 3, MaxCap: 2, Locks: 2, Vars: 5, Events: 2000,
	})
	// One thread alone for 600 events, then four more that nothing forked.
	late := workload.Random(workload.RandomConfig{Seed: 13, Threads: 1, Vars: 6, Locks: 3, Events: 600})
	rest := workload.Random(workload.RandomConfig{Seed: 14, Threads: 5, Vars: 6, Locks: 3, Events: 2000})
	late.Events = append(late.Events, rest.Events...)
	if err := race.CheckTrace(late); err != nil {
		t.Fatal(err)
	}
	out["late-threads"] = late
	return out
}

// onRaceLog records OnRace deliveries per analysis, and fails on any
// delivery out of Seq order.
type onRaceLog struct {
	t  *testing.T
	mu sync.Mutex
	by map[string][]race.RaceInfo
}

func (l *onRaceLog) record(ri race.RaceInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ri.Seq != len(l.by[ri.Analysis]) {
		l.t.Errorf("%s: Seq %d delivered after %d races", ri.Analysis, ri.Seq, len(l.by[ri.Analysis]))
	}
	l.by[ri.Analysis] = append(l.by[ri.Analysis], ri)
}

// equalRaces reports whether the online deliveries are exactly the races
// of a report, in order.
func equalRaces(got, want []race.RaceInfo) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Var != w.Var || g.Loc != w.Loc || g.Index != w.Index || g.Write != w.Write {
			return false
		}
	}
	return true
}

// TestGroupedCellsMatchStandalone is the differential behind relation
// sharing: whatever subset of the 15 cells an engine runs — so whichever
// cells end up sharing a substrate — sequentially or on 2–4 workers, at
// any batch size and run length, every sub-report is byte-identical to a
// standalone race.AnalyzeByName of that cell, Analyses() is the fan-out in
// order, and OnRace delivers each analysis's races in detection order with
// their Seq.
func TestGroupedCellsMatchStandalone(t *testing.T) {
	all := race.Detectors()
	rng := rand.New(rand.NewSource(19))
	subsets := 6
	if testing.Short() {
		subsets = 2
	}
	for trName, tr := range groupedTraces(t) {
		want := make(map[string][]byte)
		wantRaces := make(map[string][]race.RaceInfo)
		for _, cell := range all {
			rep, err := race.AnalyzeByName(tr, cell)
			if err != nil {
				t.Fatal(err)
			}
			if want[cell], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
			wantRaces[cell] = rep.Races()
		}
		for s := 0; s < subsets; s++ {
			cells := append([]string(nil), all...)
			rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
			cells = cells[:1+rng.Intn(len(cells))]
			if s == 0 {
				cells = all
			}
			for _, par := range []int{1, 2, 3, 4} {
				for _, batch := range []int{1, 7, 1024} {
					if par == 1 && batch != 1024 {
						continue // the sequential engine has no batches
					}
					run := []int{1, 13, 700, len(tr.Events)}[rng.Intn(4)]
					id := fmt.Sprintf("%s %v par=%d batch=%d run=%d", trName, cells, par, batch, run)
					log := &onRaceLog{t: t, by: make(map[string][]race.RaceInfo)}
					eng, err := race.NewEngine(race.WithAnalysisNames(cells...),
						race.WithParallelism(par), race.WithBatchSize(batch), race.WithOnRace(log.record))
					if err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(tr.Events); lo += run {
						if err := eng.FeedBatch(tr.Events[lo:min(lo+run, len(tr.Events))]); err != nil {
							t.Fatalf("%s: %v", id, err)
						}
					}
					rep, err := eng.Close()
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if got := rep.Analyses(); strings.Join(got, ",") != strings.Join(cells, ",") {
						t.Errorf("%s: Analyses() = %v", id, got)
					}
					for _, cell := range cells {
						sub, ok := rep.ByAnalysis(cell)
						if !ok {
							t.Errorf("%s: no sub-report for %s", id, cell)
							continue
						}
						got, err := json.Marshal(sub)
						if err != nil {
							t.Fatal(err)
						}
						if string(got) != string(want[cell]) {
							t.Errorf("%s: %s differs from standalone\n--- engine ---\n%s\n--- standalone ---\n%s", id, cell, got, want[cell])
						}
						if !equalRaces(log.by[cell], wantRaces[cell]) {
							t.Errorf("%s: %s delivered %d races online, standalone reports %d (or order/fields differ)",
								id, cell, len(log.by[cell]), len(wantRaces[cell]))
						}
					}
				}
			}
		}
	}
}

// TestGroupedCellsAnalyzeExactlyThePrefix: an ill-formed event i poisons a
// 15-cell engine — sequential or parallel — with exactly events [0, i)
// analyzed: every cell has delivered online precisely the races a
// standalone run over that prefix reports.
func TestGroupedCellsAnalyzeExactlyThePrefix(t *testing.T) {
	all := race.Detectors()
	rng := rand.New(rand.NewSource(23))
	for trName, tr := range groupedTraces(t) {
		if trName == "h2" || trName == "channels" {
			continue // two generator programs and three hand-shaped traces are spread enough
		}
		i := len(tr.Events)/2 + rng.Intn(len(tr.Events)/2)
		prefix := *tr
		prefix.Events = tr.Events[:i]
		bad := append(append([]race.Event(nil), prefix.Events...),
			race.Event{T: tr.Events[i].T, Op: race.OpRelease, Targ: 1<<32 - 1}) // a lock no event names
		bad = append(bad, tr.Events[i:]...)
		for _, par := range []int{1, 3} {
			log := &onRaceLog{t: t, by: make(map[string][]race.RaceInfo)}
			eng, err := race.NewEngine(race.WithAnalysisNames(all...),
				race.WithParallelism(par), race.WithBatchSize(7), race.WithOnRace(log.record))
			if err != nil {
				t.Fatal(err)
			}
			var ferr error
			for lo := 0; lo < len(bad) && ferr == nil; lo += 97 {
				ferr = eng.FeedBatch(bad[lo:min(lo+97, len(bad))])
			}
			if ferr == nil || !strings.Contains(ferr.Error(), "ill-formed") {
				t.Fatalf("%s par=%d: FeedBatch = %v, want ill-formed stream error", trName, par, ferr)
			}
			if eng.Fed() != i {
				t.Errorf("%s par=%d: Fed = %d, want %d", trName, par, eng.Fed(), i)
			}
			if _, err := eng.Close(); err == nil {
				t.Errorf("%s par=%d: poisoned engine closed without error", trName, par)
			}
			for _, cell := range all {
				rep, err := race.AnalyzeByName(&prefix, cell)
				if err != nil {
					t.Fatal(err)
				}
				if !equalRaces(log.by[cell], rep.Races()) {
					t.Errorf("%s par=%d: %s delivered %d races, the %d-event prefix has %d",
						trName, par, cell, len(log.by[cell]), i, len(rep.Races()))
				}
			}
		}
	}
}
