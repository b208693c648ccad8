// Command racebench regenerates the evaluation tables and figures of
// "SmartTrack: Efficient Predictive Race Detection" over the synthetic
// DaCapo-calibrated workloads.
//
// Usage:
//
//	racebench -table 7 -scale 4000
//	racebench -table all -trials 5
//	racebench -figures
//	racebench -table 12 -programs xalan,pmd
//
// It renders the tables that are counts: 1, 2, 3 and 4 (memory), 6, 7, 8,
// 10, 11 and 12. Run times (Tables 5 and 9, and the run-time halves of 3
// and 4) are measured by benchmark/ (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/workload"
)

func main() {
	var (
		table    = flag.String("table", "", "table to regenerate: 1..4, 6..8, 10..12, or \"all\"")
		figures  = flag.Bool("figures", false, "regenerate Figures 1–4 as analysis verdicts")
		scale    = flag.Int("scale", 4000, "divide the paper's event counts by this factor")
		trials   = flag.Int("trials", 1, "trials per measurement (appendix tables use 5+)")
		seed     = flag.Int64("seed", 1, "base workload seed")
		programs = flag.String("programs", "", "comma-separated workload subset (default: all ten)")
	)
	flag.Parse()

	cfg := bench.Config{ScaleDiv: *scale, Trials: *trials, Seed: *seed}
	if *programs != "" {
		cfg.Programs = strings.Split(*programs, ",")
	}
	for _, name := range cfg.Programs {
		if _, ok := workload.ProgramByName(name); !ok {
			fmt.Fprintf(os.Stderr, "racebench: unknown program %q (tracegen -list names them)\n", name)
			os.Exit(2)
		}
	}

	if *figures {
		fmt.Print(bench.RenderFigures())
	}
	if *table == "" && !*figures {
		flag.Usage()
		os.Exit(2)
	}
	if *table == "" {
		return
	}

	render := func(id string) {
		switch id {
		case "1":
			fmt.Println(bench.RenderTable1())
		case "2":
			fmt.Println(bench.RenderTable2(cfg))
		case "3":
			fmt.Println(bench.RenderTable3(cfg, false))
		case "4":
			fmt.Println(bench.RenderTable4(cfg))
		case "6":
			fmt.Println(bench.RenderTable6(cfg, false))
		case "7":
			fmt.Println(bench.RenderTable7(cfg, false))
		case "8":
			fmt.Println(bench.RenderTable3(cfg, true))
		case "10":
			fmt.Println(bench.RenderTable6(cfg, true))
		case "11":
			fmt.Println(bench.RenderTable7(cfg, true))
		case "12":
			fmt.Println(bench.RenderTable12(cfg))
		case "5", "9":
			fmt.Fprintf(os.Stderr, "racebench: table %s is run times, which racebench does not measure: "+
				"run benchmark/run.sh and read its cell.<analysis>.<trace>_ns_per_event rows\n", id)
			os.Exit(2)
		default:
			fmt.Fprintf(os.Stderr, "racebench: unknown table %q\n", id)
			os.Exit(2)
		}
	}

	if *table == "all" {
		for _, id := range []string{"1", "2", "3", "4", "6", "7", "8", "10", "11", "12"} {
			render(id)
		}
		return
	}
	render(*table)
}
