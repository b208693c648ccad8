// Quickstart: build the paper's Figure 1 execution with the trace Builder,
// run happens-before and the three predictive analyses over it — first
// through the batch Analyze wrapper, then through the streaming Engine,
// which detects the race online, mid-stream — and vindicate the predictive
// race.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/race"
)

func main() {
	// Figure 1(a) of the paper: Thread 1 reads x and then uses lock m;
	// Thread 2 uses lock m and then writes x. The critical sections do not
	// conflict, so the execution can be reordered to make rd(x) and wr(x)
	// adjacent — a predictable race that HB analysis cannot see.
	b := race.NewBuilder()
	b.Read("T1", "x")
	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m")
	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
	b.Write("T2", "x")
	tr := b.Build()
	if err := race.CheckTrace(tr); err != nil {
		log.Fatal(err)
	}

	// Batch mode: Analyze wraps the streaming engine for whole traces.
	fmt.Println("analysis            races")
	for _, cfg := range []struct {
		rel race.Relation
		lvl race.Level
		tag string
	}{
		{race.HB, race.FTO, "FTO-HB (FastTrack)"},
		{race.WCP, race.SmartTrack, "SmartTrack-WCP"},
		{race.DC, race.SmartTrack, "SmartTrack-DC"},
		{race.WDC, race.SmartTrack, "SmartTrack-WDC"},
	} {
		rep, err := race.Analyze(tr, cfg.rel, cfg.lvl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-19s %d\n", cfg.tag, rep.Dynamic())
	}

	// Streaming mode: the engine exists before any events do, fans the
	// stream out to several analyses in one pass, and reports the race the
	// moment the detecting access is fed — online, as the paper's analyses
	// run inside RoadRunner.
	eng, err := race.NewEngine(
		race.WithAnalysisNames("FTO-HB", "ST-WDC"),
		race.WithOnRace(func(r race.RaceInfo) {
			fmt.Printf("\nonline: %s flags var %d at event %d, mid-stream\n",
				r.Analysis, r.Var, r.Index)
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	for i := range tr.Events {
		if err := eng.FeedBatch(tr.Events[i : i+1]); err != nil { // one event at a time
			log.Fatal(err)
		}
	}
	rep, err := eng.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range rep.Analyses() {
		sub, _ := rep.ByAnalysis(name)
		fmt.Printf("engine %-8s %d race(s) in one pass\n", name, sub.Dynamic())
	}

	// The predictive analyses report one race; prove it is real by
	// constructing a witness reordering.
	st, _ := rep.ByAnalysis("ST-WDC")
	r := st.Races()[0]
	res, err := race.Vindicate(tr, r.Index)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Vindicated {
		log.Fatalf("expected vindication, got: %s", res.Reason)
	}
	fmt.Println("\nwitness reordering exposing the race (cf. Figure 1(b)):")
	for _, e := range res.Witness {
		fmt.Printf("  %v\n", e)
	}
}
