package race_test

import (
	"fmt"

	"repro/race"
)

// ExampleAnalyze transcribes the paper's Figure 1: an execution with no
// happens-before race but a predictable race that every predictive
// relation detects.
func ExampleAnalyze() {
	b := race.NewBuilder()
	b.Read("T1", "x")
	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m")
	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
	b.Write("T2", "x")
	tr := b.Build()

	hb, _ := race.Analyze(tr, race.HB, race.FTO)
	st, _ := race.Analyze(tr, race.WDC, race.SmartTrack)
	fmt.Println("FTO-HB:", hb.Dynamic())
	fmt.Println("ST-WDC:", st.Dynamic())
	// Output:
	// FTO-HB: 0
	// ST-WDC: 1
}

// ExampleEngine streams Figure 1 through a multi-analysis engine one event
// at a time — the detectors exist before any events do, and the race is
// reported online at the detecting access.
func ExampleEngine() {
	b := race.NewBuilder()
	b.Read("T1", "x")
	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m")
	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
	b.Write("T2", "x")
	tr := b.Build()

	eng, _ := race.NewEngine(
		race.WithAnalysisNames("FTO-HB", "ST-WDC"),
		race.WithOnRace(func(r race.RaceInfo) {
			fmt.Printf("online: %s at event %d\n", r.Analysis, r.Index)
		}),
	)
	for _, e := range tr.Events {
		eng.FeedBatch([]race.Event{e})
	}
	rep, _ := eng.Close()
	for _, name := range rep.Analyses() {
		sub, _ := rep.ByAnalysis(name)
		fmt.Printf("%s: %d\n", name, sub.Dynamic())
	}
	// Output:
	// online: ST-WDC at event 7
	// FTO-HB: 0
	// ST-WDC: 1
}

// ExampleVindicate confirms a predictive race is real by constructing a
// witness reordering — the executable analog of Figure 1(b).
func ExampleVindicate() {
	b := race.NewBuilder()
	b.Read("T1", "x")
	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m")
	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
	b.Write("T2", "x")
	tr := b.Build()

	rep, _ := race.Analyze(tr, race.DC, race.SmartTrack)
	res, _ := race.Vindicate(tr, rep.Races()[0].Index)
	fmt.Println("vindicated:", res.Vindicated)
	fmt.Println("witness ends with the racing pair:",
		res.Witness[len(res.Witness)-2].Op, res.Witness[len(res.Witness)-1].Op)
	// Output:
	// vindicated: true
	// witness ends with the racing pair: rd wr
}

// ExampleRuntime records a tiny two-goroutine interaction and analyzes it
// afterwards. (Events are emitted from one goroutine here for a
// deterministic example; see examples/bank for real concurrency.)
func ExampleRuntime() {
	rt := race.NewRuntime()
	t1 := rt.Main()
	t2 := rt.Go(t1)

	rt.Write(t1, "shared")
	rt.Write(t2, "shared") // no synchronization: races

	rep, _ := rt.Analyze(race.WCP, race.SmartTrack)
	fmt.Println("races:", rep.Dynamic())
	// Output:
	// races: 1
}

// ExampleAnalyzeByName runs an analysis selected by its Table 1 name.
func ExampleAnalyzeByName() {
	b := race.NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	rep, _ := race.AnalyzeByName(b.Build(), "FT2")
	fmt.Println(rep.Static(), "static,", rep.Dynamic(), "dynamic")
	// Output:
	// 1 static, 1 dynamic
}
