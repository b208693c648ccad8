package bench

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fto"

	// Register the FT2 baseline with the analysis registry.
	_ "repro/internal/ft"
	"repro/internal/vindicate"
	"repro/internal/workload"
)

// Analysis name sets used by the paper's tables.
var (
	// BaselineNames are Table 3's columns.
	BaselineNames = []string{"FT2", "FTO-HB", "Unopt-DC w/G", "Unopt-DC", "Unopt-WDC w/G", "Unopt-WDC"}
	// GridNames are the 11 analyses of Tables 4–7.
	GridNames = []string{
		"Unopt-HB", "Unopt-WCP", "Unopt-DC", "Unopt-WDC",
		"FTO-HB", "FTO-WCP", "FTO-DC", "FTO-WDC",
		"ST-WCP", "ST-DC", "ST-WDC",
	}
)

func gridName(lvl analysis.Level, rel analysis.Relation) string {
	switch lvl {
	case analysis.Unopt:
		return "Unopt-" + rel.String()
	case analysis.FTO:
		return "FTO-" + rel.String()
	default:
		return "ST-" + rel.String()
	}
}

// factor renders a slowdown/memory factor the way the paper does: two
// significant digits.
func factor(v float64) string {
	switch {
	case v == 0:
		return "—"
	case v < 10:
		return fmt.Sprintf("%.1f×", v)
	default:
		return fmt.Sprintf("%.0f×", v)
	}
}

func factorCI(s Sample, ci bool) string {
	if !ci || s.CI == 0 {
		return factor(s.Mean)
	}
	return fmt.Sprintf("%s ± %s", factor(s.Mean), factor(s.CI))
}

func count(s Sample, ci bool) string {
	if !ci || s.CI == 0 {
		return fmt.Sprintf("%.0f", s.Mean)
	}
	return fmt.Sprintf("%.0f ± %.1f", s.Mean, s.CI)
}

func table(header string, fill func(w *tabwriter.Writer)) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fill(w)
	w.Flush()
	return b.String()
}

// RenderTable1 prints the analysis taxonomy (Table 1).
func RenderTable1() string {
	return table("Table 1. Evaluated analyses (rows: relation, columns: optimization level).",
		func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "\tUnopt w/G\tUnopt (w/o G)\tEpochs\t+ Ownership\t+ CS optimizations")
			for _, rel := range analysis.Relations {
				cells := make([]string, 5)
				for i, lvl := range []analysis.Level{analysis.UnoptG, analysis.Unopt, analysis.FT2, analysis.FTO, analysis.SmartTrack} {
					if e, ok := analysis.Lookup(rel, lvl); ok {
						cells[i] = e.Name
					} else {
						cells[i] = "N/A"
					}
				}
				fmt.Fprintf(w, "%s\t%s\n", rel, strings.Join(cells, "\t"))
			}
		})
}

// RenderTable2 prints the run-time characteristics of the workloads
// (Table 2), measured with FTO-HB's statistics counters.
func RenderTable2(cfg Config) string {
	cfg = cfg.withDefaults()
	return table(fmt.Sprintf("Table 2. Run-time characteristics (scale 1/%d).", cfg.ScaleDiv),
		func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Program\t#Thr\tEvents All\tNSEAs\t≥1 lock\t≥2\t≥3")
			for _, p := range cfg.SelectedPrograms() {
				tr := p.Generate(cfg.ScaleDiv, cfg.Seed)
				a := fto.New(analysis.HB, analysis.SpecOf(tr))
				analysis.Run(a, tr)
				st := a.Stats()
				n := st.NSEAs()
				pct := func(k int) string {
					if n == 0 {
						return "—"
					}
					return fmt.Sprintf("%.2f%%", 100*float64(st.HeldAtLeast(k))/float64(n))
				}
				fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%s\t%s\n",
					p.Name, tr.Threads, tr.Len(), n, pct(1), pct(2), pct(3))
			}
		})
}

// RenderTable3 prints the baseline comparison (Table 3; Table 8 with CIs).
func RenderTable3(cfg Config, ci bool) string {
	cfg = cfg.withDefaults()
	results := Run(cfg, BaselineNames)
	id := 3
	if ci {
		id = 8
	}
	hdr := fmt.Sprintf("Table %d. Run time and memory vs. uninstrumented replay (scale 1/%d, %d trial(s)).",
		id, cfg.ScaleDiv, cfg.Trials)
	return table(hdr, func(w *tabwriter.Writer) {
		for _, metric := range []string{"Run time", "Memory usage"} {
			fmt.Fprintf(w, "-- %s --\t\n", metric)
			fmt.Fprintln(w, "Program\t"+strings.Join(BaselineNames, "\t"))
			geo := make(map[string][]float64)
			for _, pr := range results {
				row := []string{pr.Program.Name}
				for _, name := range BaselineNames {
					c := pr.Cells[name]
					s := c.Slowdown
					if metric == "Memory usage" {
						s = c.Memory
					}
					row = append(row, factorCI(s, ci))
					geo[name] = append(geo[name], s.Mean)
				}
				fmt.Fprintln(w, strings.Join(row, "\t"))
			}
			row := []string{"geomean"}
			for _, name := range BaselineNames {
				row = append(row, factor(Geomean(geo[name])))
			}
			fmt.Fprintln(w, strings.Join(row, "\t"))
		}
	})
}

// gridTables renders Tables 4/5/6/7 (and 9/10/11 with CIs) from one
// measurement pass.
type metricKind int

const (
	metricTime metricKind = iota
	metricMem
	metricRaces
)

func renderGrid(cfg Config, kind metricKind, ci bool, id int, caption string) string {
	cfg = cfg.withDefaults()
	results := Run(cfg, GridNames)
	hdr := fmt.Sprintf("Table %d. %s (scale 1/%d, %d trial(s)).", id, caption, cfg.ScaleDiv, cfg.Trials)
	levels := []analysis.Level{analysis.Unopt, analysis.FTO, analysis.SmartTrack}
	return table(hdr, func(w *tabwriter.Writer) {
		for _, pr := range results {
			fmt.Fprintf(w, "-- %s --\t\n", pr.Program.Name)
			fmt.Fprintln(w, "\tUnopt-\tFTO-\tST-")
			for _, rel := range analysis.Relations {
				row := []string{rel.String()}
				for _, lvl := range levels {
					name := gridName(lvl, rel)
					c, ok := pr.Cells[name]
					if !ok {
						row = append(row, "N/A")
						continue
					}
					switch kind {
					case metricTime:
						row = append(row, factorCI(c.Slowdown, ci))
					case metricMem:
						row = append(row, factorCI(c.Memory, ci))
					default:
						row = append(row, fmt.Sprintf("%s (%s)", count(c.Static, ci), count(c.Dynamic, ci)))
					}
				}
				fmt.Fprintln(w, strings.Join(row, "\t"))
			}
		}
	})
}

// RenderTable4 prints the geometric-mean grid (Table 4).
func RenderTable4(cfg Config) string {
	cfg = cfg.withDefaults()
	results := Run(cfg, GridNames)
	levels := []analysis.Level{analysis.Unopt, analysis.FTO, analysis.SmartTrack}
	hdr := fmt.Sprintf("Table 4. Geometric mean of run time and memory usage across programs (scale 1/%d, %d trial(s)).",
		cfg.ScaleDiv, cfg.Trials)
	return table(hdr, func(w *tabwriter.Writer) {
		for _, metric := range []string{"Run time", "Memory usage"} {
			fmt.Fprintf(w, "-- %s --\t\n", metric)
			fmt.Fprintln(w, "\tUnopt-\tFTO-\tST-")
			for _, rel := range analysis.Relations {
				row := []string{rel.String()}
				for _, lvl := range levels {
					name := gridName(lvl, rel)
					if _, ok := analysis.ByName(name); !ok {
						row = append(row, "N/A")
						continue
					}
					var vals []float64
					for _, pr := range results {
						if c, ok := pr.Cells[name]; ok {
							if metric == "Run time" {
								vals = append(vals, c.Slowdown.Mean)
							} else {
								vals = append(vals, c.Memory.Mean)
							}
						}
					}
					row = append(row, factor(Geomean(vals)))
				}
				fmt.Fprintln(w, strings.Join(row, "\t"))
			}
		}
	})
}

// RenderTable5 prints per-program run-time factors (Table 5; Table 9 w/CI).
func RenderTable5(cfg Config, ci bool) string {
	id, caption := 5, "Run time relative to uninstrumented replay"
	if ci {
		id = 9
	}
	return renderGrid(cfg, metricTime, ci, id, caption)
}

// RenderTable6 prints per-program memory factors (Table 6; Table 10 w/CI).
func RenderTable6(cfg Config, ci bool) string {
	id, caption := 6, "Memory usage relative to trace footprint"
	if ci {
		id = 10
	}
	return renderGrid(cfg, metricMem, ci, id, caption)
}

// RenderTable7 prints races reported (Table 7; Table 11 w/CI): statically
// distinct races with total dynamic races in parentheses.
func RenderTable7(cfg Config, ci bool) string {
	id, caption := 7, "Average races reported: static (dynamic)"
	if ci {
		id = 11
	}
	return renderGrid(cfg, metricRaces, ci, id, caption)
}

// RenderTable12 prints SmartTrack-WDC case frequencies (Table 12).
func RenderTable12(cfg Config) string {
	cfg = cfg.withDefaults()
	hdr := fmt.Sprintf("Table 12. Frequencies of non-same-epoch accesses for SmartTrack-WDC (scale 1/%d).", cfg.ScaleDiv)
	return table(hdr, func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Program\tEvent\tTotal\tOwned Excl\tOwned Shared\tUnowned Excl\tUnowned Share\tUnowned Shared")
		for _, p := range cfg.SelectedPrograms() {
			tr := p.Generate(cfg.ScaleDiv, cfg.Seed)
			a := core.New(analysis.WDC, analysis.SpecOf(tr))
			analysis.Run(a, tr)
			c := a.Cases()
			pct := func(n, total uint64) string {
				if total == 0 {
					return "—"
				}
				return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(total))
			}
			nr := c.NSEAReads()
			fmt.Fprintf(w, "%s\tRead\t%d\t%s\t%s\t%s\t%s\t%s\n", p.Name, nr,
				pct(c.ReadOwned, nr), pct(c.ReadSharedOwned, nr),
				pct(c.ReadExclusive, nr), pct(c.ReadShare, nr), pct(c.ReadShared, nr))
			nw := c.NSEAWrites()
			fmt.Fprintf(w, "\tWrite\t%d\t%s\tN/A\t%s\tN/A\t%s\n", nw,
				pct(c.WriteOwned, nw), pct(c.WriteExclusive, nw), pct(c.WriteShared, nw))
		}
	})
}

// RenderFigures runs every registered analysis over the paper's example
// executions and reports which relations detect the race, plus the
// vindication verdict — regenerating Figures 1–4 as checkable facts.
func RenderFigures() string {
	var b strings.Builder
	entries := analysis.All()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	for _, fig := range workload.Figures() {
		fmt.Fprintf(&b, "%s: candidate race on variable x\n", fig.Name)
		for _, rel := range analysis.Relations {
			var detecting []string
			for _, e := range entries {
				if e.Relation != rel {
					continue
				}
				col := analysis.Run(e.NewFor(fig.Trace), fig.Trace)
				if _, ok := col.FirstRace(fig.RaceVar); ok {
					detecting = append(detecting, e.Name)
				}
			}
			verdict := "no race"
			if len(detecting) > 0 {
				verdict = "race (" + strings.Join(detecting, ", ") + ")"
			}
			fmt.Fprintf(&b, "  %-4s %s\n", rel.String()+":", verdict)
		}
		// Vindication via the weakest relation's constraint graph.
		if v, err := vindicate.New(fig.Trace); err != nil {
			fmt.Fprintf(&b, "  vindication: %v\n", err)
		} else if races := v.Races(); len(races) == 0 {
			fmt.Fprintf(&b, "  vindication: n/a (no analysis reports a race)\n")
		} else if res := v.Race(races[0].Index, vindicate.Options{}); res.Vindicated {
			fmt.Fprintf(&b, "  vindication: predictable race confirmed (witness of %d events)\n", len(res.Witness))
		} else {
			fmt.Fprintf(&b, "  vindication: not confirmed (%s)\n", res.Reason)
		}
		b.WriteString("\n")
	}
	return b.String()
}
