// Package bench runs the analyses over the DaCapo-calibrated workloads and
// regenerates the paper's evaluation tables that are counts, not times:
// every table it renders is a function of (program, scale, seed). Memory
// factors compare the program-data-plus-metadata footprint against the
// program data alone (the stand-in for maximum resident set size ratios).
// Multi-trial runs vary the workload seed — the analog of the paper's
// run-to-run variation — and report means with 95% confidence intervals.
// Run times (Tables 3–5, 8 and 9) are the benchmark module's to measure.
package bench

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config controls a benchmark run.
type Config struct {
	// ScaleDiv divides the paper's event counts (default 4000).
	ScaleDiv int
	// Trials is the number of seeds per measurement (default 1).
	Trials int
	// Seed is the base workload seed.
	Seed int64
	// Programs restricts the workloads (nil = all ten).
	Programs []string
}

func (c Config) withDefaults() Config {
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 4000
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	return c
}

// SelectedPrograms resolves the configured workload list.
func (c Config) SelectedPrograms() []workload.Program {
	c = c.withDefaults()
	if len(c.Programs) == 0 {
		return workload.Programs
	}
	var out []workload.Program
	for _, name := range c.Programs {
		if p, ok := workload.ProgramByName(name); ok {
			out = append(out, p)
		}
	}
	return out
}

// Sample is one measured quantity over trials.
type Sample struct {
	Mean float64
	// CI is the 95% confidence half-width (0 for a single trial).
	CI float64
	n  int
}

// NewSample summarizes values as mean ± 95% CI (Student t).
func NewSample(values []float64) Sample {
	n := len(values)
	if n == 0 {
		return Sample{}
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Sample{Mean: mean, n: 1}
	}
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return Sample{Mean: mean, CI: tCrit(n-1) * sd / math.Sqrt(float64(n)), n: n}
}

// tCrit is the two-sided 95% Student t critical value.
func tCrit(df int) float64 {
	table := []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Cell is one analysis × program measurement.
type Cell struct {
	Memory  Sample // (program + metadata bytes) / program bytes
	Static  Sample
	Dynamic Sample
}

// ProgramBytes estimates the uninstrumented program's live-data footprint —
// the denominator of the paper's memory-usage factors (maximum resident set
// size of the uninstrumented run). The analog here is the program's own
// state: its variables, locks, volatiles, and thread stacks, plus a fixed
// runtime floor. Analysis metadata is measured on top of this, so the
// ratios track the paper's even though the trace itself (which has no
// analog in a live run) is excluded. The counts are the ids the trace uses.
func ProgramBytes(tr *trace.Trace) int {
	x := trace.ExtentOf(tr.Events)
	return 16*x.Vars + 32*x.Locks + 16*x.Volatiles + 4096*x.Threads + 1<<14
}

// ProgramResult holds all measured cells for one workload.
type ProgramResult struct {
	Program workload.Program
	Cells   map[string]*Cell // keyed by analysis name
}

// Run runs the named analyses over each configured workload's trace of
// every trial and reads their metadata weight and races.
func Run(cfg Config, names []string) []*ProgramResult {
	cfg = cfg.withDefaults()
	var results []*ProgramResult
	for _, p := range cfg.SelectedPrograms() {
		pr := &ProgramResult{Program: p, Cells: make(map[string]*Cell)}
		samples := make(map[string]*struct{ mem, st, dyn []float64 })
		for trial := 0; trial < cfg.Trials; trial++ {
			tr := p.Generate(cfg.ScaleDiv, cfg.Seed+int64(trial))
			tb := float64(ProgramBytes(tr))
			for _, name := range names {
				entry, ok := analysis.ByName(name)
				if !ok {
					continue
				}
				a := entry.NewFor(tr)
				col := analysis.Run(a, tr)
				s := samples[name]
				if s == nil {
					s = &struct{ mem, st, dyn []float64 }{}
					samples[name] = s
				}
				s.mem = append(s.mem, (tb+8*float64(a.MetadataWeight()))/tb)
				s.st = append(s.st, float64(col.Static()))
				s.dyn = append(s.dyn, float64(col.Dynamic()))
			}
		}
		for name, s := range samples {
			pr.Cells[name] = &Cell{Memory: NewSample(s.mem), Static: NewSample(s.st), Dynamic: NewSample(s.dyn)}
		}
		results = append(results, pr)
	}
	return results
}

// Geomean computes the geometric mean of positive values.
func Geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}
