// Command racebench regenerates the evaluation tables and figures of
// "SmartTrack: Efficient Predictive Race Detection" over the synthetic
// DaCapo-calibrated workloads.
//
// Usage:
//
//	racebench -table 5 -scale 4000 -trials 1
//	racebench -table all -trials 5
//	racebench -figures
//	racebench -table 7 -programs xalan,pmd
//
// It renders the paper's artifacts; the repository's performance is
// measured by benchmark/ (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		table    = flag.String("table", "", "table to regenerate: 1..12, or \"all\"")
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
		case "5":
			fmt.Println(bench.RenderTable5(cfg, false))
		case "6":
			fmt.Println(bench.RenderTable6(cfg, false))
		case "7":
			fmt.Println(bench.RenderTable7(cfg, false))
		case "8":
			fmt.Println(bench.RenderTable3(cfg, true))
		case "9":
			fmt.Println(bench.RenderTable5(cfg, true))
		case "10":
			fmt.Println(bench.RenderTable6(cfg, true))
		case "11":
			fmt.Println(bench.RenderTable7(cfg, true))
		case "12":
			fmt.Println(bench.RenderTable12(cfg))
		default:
			fmt.Fprintf(os.Stderr, "racebench: unknown table %q\n", id)
			os.Exit(2)
		}
	}

	if *table == "all" {
		for i := 1; i <= 12; i++ {
			render(fmt.Sprint(i))
		}
		return
	}
	render(*table)
}
