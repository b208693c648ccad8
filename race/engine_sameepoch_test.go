package race

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fto"
	"repro/internal/workload"
)

// markedTraces are the streams the same-epoch marking is held to, with the
// sha256 and length of the 15-cell report JSON — plain, and with
// WithVindication — as the engine produced them
// before it marked anything (fed one event at a time).
var markedTraces = []struct {
	name      string
	tr        func() *Trace
	bytes     int
	sha256    string
	vindBytes int
	vindSHA   string
}{
	{"h2", program("h2", 100000), 17852, "0d3c745221a6a6e447b62b315978270761fcbc17c63cdb5f436cb2a47d51083a",
		443907, "4630598eb3c56707dca6e2c9d92aa6f553027754896e53939d5664751f21b4ef"},
	{"xalan", program("xalan", 40000), 152018, "fa2a0e0b36d61d8ef571f24e8c8bf29664a0d47d529718ccd47222b8a4c45c4b",
		236937, "631ef6e3af38644fb4caaa221551b3bf75f9f8c7f73c6863d75c5737af02f315"},
	{"pmd", program("pmd", 20000), 11445, "07c9154591de415db4477f1fe1740964bc66e7523dbac90c2aa77cc290052b9d",
		348981, "5b450cb9fa5804377846885e0ae79f7fe2834b5ffb9b31685cba159f323299e7"},
	{"random", func() *Trace {
		return workload.Random(workload.RandomConfig{Seed: 7, Threads: 5, Vars: 6, Locks: 3, Volatiles: 2, Events: 4000, ForkJoin: true})
	}, 2401985, "58c6d4d100b94f6bd7b5f04e70361cbccc76438a4807fa5383c6ce3412b0409b",
		2418394, "a55bea370a8efa2a4065a2ad65abc9d3c68f81e38a026f505c6d41f47bbf073e"},
}

func program(name string, div int) func() *Trace {
	return func() *Trace {
		p, _ := workload.ProgramByName(name)
		return p.Generate(div, 7)
	}
}

// feedRuns feeds tr in runs of n events (n == 0: one event at a time).
func feedRuns(eng *Engine, tr *Trace, n int) error {
	if n == 0 {
		for i := range tr.Events {
			if err := eng.FeedBatch(tr.Events[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	}
	for evs := tr.Events; len(evs) > 0; evs = evs[min(n, len(evs)):] {
		if err := eng.FeedBatch(evs[:min(n, len(evs))]); err != nil {
			return err
		}
	}
	return nil
}

// TestMarkedFanOutReportsAreUnchanged: a 15-cell engine, which marks its
// same-epoch accesses, produces the report JSON the engine produced before
// marking existed, byte for byte — sequential and on 2 or 4 workers, at
// pipeline batch sizes either side of a bitmap word, fed one event at a
// time or in runs of 1, 7 or 8192, and vindicating.
func TestMarkedFanOutReportsAreUnchanged(t *testing.T) {
	type config struct {
		par, batch, run int
		vindicate       bool
	}
	configs := []config{{1, 0, 0, false}, {1, 0, 1, false}, {1, 0, 7, false}, {1, 0, 8192, false}, {2, 64, 0, false}}
	for _, par := range []int{2, 4} {
		for _, batch := range []int{1, 63, 64, 1024} {
			configs = append(configs, config{par, batch, map[int]int{2: 7, 4: 8192}[par], false})
		}
	}
	configs = append(configs, config{1, 0, 8192, true}, config{2, 0, 8192, true}, config{4, 63, 7, true})
	for _, mt := range markedTraces {
		tr := mt.tr()
		for _, c := range configs {
			id := fmt.Sprintf("%s par=%d batch=%d run=%d vindicate=%v", mt.name, c.par, c.batch, c.run, c.vindicate)
			opts := []Option{WithAnalysisNames(Detectors()...), WithParallelism(c.par), WithBatchSize(c.batch)}
			wantBytes, wantSHA := mt.bytes, mt.sha256
			if c.vindicate {
				opts = append(opts, WithVindication())
				wantBytes, wantSHA = mt.vindBytes, mt.vindSHA
			}
			eng, err := NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if eng.mark == nil {
				t.Fatalf("%s: the 15-cell engine does not mark", id)
			}
			if err := feedRuns(eng, tr, c.run); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			rep, err := eng.Close()
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			doc, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(doc)
			if got := hex.EncodeToString(sum[:]); len(doc) != wantBytes || got != wantSHA {
				t.Errorf("%s: report is %d bytes, sha256 %s; before marking %d bytes, %s", id, len(doc), got, wantBytes, wantSHA)
			}
		}
	}
}

// TestOnlyFanOutsMark: an engine marks only when it has two or more
// computations to share the stamp table's cost.
func TestOnlyFanOutsMark(t *testing.T) {
	for _, tc := range []struct {
		names []string
		mark  bool
	}{
		{nil, false},
		{[]string{"ST-DC"}, false},
		{[]string{"FT2", "FTO-HB", "Unopt-HB"}, false}, // one HB computation
		{[]string{"ST-WDC", "ST-DC"}, true},
		{[]string{"FTO-HB", "FTO-WDC"}, true},
		{Detectors(), true},
	} {
		for _, par := range []int{1, 2} {
			eng, err := NewEngine(WithAnalysisNames(tc.names...), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if (eng.mark != nil) != tc.mark {
				t.Errorf("%v par=%d: marks = %v, want %v", tc.names, par, eng.mark != nil, tc.mark)
			}
			eng.Abort()
		}
	}
}

// TestIllFormedEventEndsTheMarking: when event i of a run is ill-formed,
// the marker has seen exactly events [0, i) — what a marker fed only that
// prefix holds — sequential and parallel.
func TestIllFormedEventEndsTheMarking(t *testing.T) {
	tr := program("h2", 100000)()
	const bad = 20000
	evs := append(append([]Event{}, tr.Events[:bad]...), Event{T: tr.Events[bad].T, Op: OpRelease, Targ: 1 << 20})
	evs = append(evs, tr.Events[bad:]...)
	var want analysis.SameEpoch
	want.Mark(tr.Events[:bad], analysis.Same(nil).Cover(bad), 0)
	for _, par := range []int{1, 2} {
		eng, err := NewEngine(WithAnalysisNames(Detectors()...), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedBatch(evs[:bad-100]); err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedBatch(evs[bad-100:]); err == nil {
			t.Fatalf("par=%d: the ill-formed run was accepted", par)
		}
		if !reflect.DeepEqual(*eng.mark, want) {
			t.Errorf("par=%d: the marker's state is not that of the %d-event prefix", par, bad)
		}
		eng.Abort()
	}
}

// groupedFTOViews returns the FTO views of a grouped computation, by
// reflection: the engine hands its views out nowhere.
func groupedFTOViews(c *computation) []*fto.View {
	g := reflect.ValueOf(c.a)
	if g.Kind() != reflect.Pointer || g.Elem().Kind() != reflect.Struct {
		return nil
	}
	views := g.Elem().FieldByName("views")
	if !views.IsValid() {
		return nil
	}
	var out []*fto.View
	for i := 0; i < views.Len(); i++ {
		if v := views.Index(i).Elem(); v.Type() == reflect.TypeOf((*fto.View)(nil)) {
			out = append(out, (*fto.View)(v.UnsafePointer()))
		}
	}
	return out
}

// TestGroupedFTOStatsMatchStandalone: after a 15-cell run, which skips the
// marked accesses without asking any view or SmartTrack cell, each grouped
// FTO view's Stats, and each SmartTrack computation's, equal those of the
// same cell run alone.
func TestGroupedFTOStatsMatchStandalone(t *testing.T) {
	for _, mt := range markedTraces {
		tr := mt.tr()
		for _, par := range []int{1, 2} {
			eng, err := NewEngine(WithAnalysisNames(Detectors()...), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if err := feedRuns(eng, tr, 1000); err != nil {
				t.Fatal(err)
			}
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
			grouped, st := 0, 0
			for ci := range eng.comps {
				c := &eng.comps[ci]
				if a, ok := c.a.(*core.Analysis); ok {
					st++
					entry, _ := analysis.ByName(c.name)
					alone := entry.NewFor(tr).(*core.Analysis)
					analysis.Run(alone, tr)
					if *a.Stats() != *alone.Stats() {
						t.Errorf("%s par=%d: %s counts %+v, alone %+v", mt.name, par, c.name, *a.Stats(), *alone.Stats())
					}
				}
				for _, v := range groupedFTOViews(c) {
					grouped++
					alone := fto.New(v.Sub.Rel)
					analysis.Run(alone, tr)
					if *v.Stats() != *alone.Stats() {
						t.Errorf("%s par=%d: grouped FTO-%v counts %+v, alone %+v", mt.name, par, v.Sub.Rel, *v.Stats(), *alone.Stats())
					}
				}
			}
			if grouped != 4 || st != 3 {
				t.Fatalf("%s par=%d: found %d grouped FTO views and %d ST cells, want 4 and 3", mt.name, par, grouped, st)
			}
			if _, err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
