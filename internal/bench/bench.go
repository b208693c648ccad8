// Package bench measures the analyses over the DaCapo-calibrated workloads
// and regenerates the paper's evaluation tables (Tables 2–12). Slowdown
// factors are analysis time over a no-op replay of the same event stream
// (the stand-in for uninstrumented execution); memory factors compare the
// program-data-plus-metadata footprint against the program data alone (the
// stand-in for maximum resident set size ratios). Multi-trial runs vary the workload
// seed — the analog of the paper's run-to-run variation — and report means
// with 95% confidence intervals.
package bench

import (
	"math"
	"time"

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
	Slowdown Sample // run time / baseline run time
	Memory   Sample // (program + metadata bytes) / program bytes
	Static   Sample
	Dynamic  Sample
}

// Measurement is the raw outcome of one analysis run on one trace.
type Measurement struct {
	Duration  time.Duration
	MetaBytes int
	Static    int
	Dynamic   int
}

// measureChunk is the fan-out granularity of MeasureAnalyses: small enough
// that a chunk of events stays cache-hot across all analyses, large enough
// that the per-chunk timer reads vanish in the measurement.
const measureChunk = 8192

// MeasureAnalyses runs every entry over tr in a single pass: the trace is
// walked once in chunks, each chunk fed to every analysis in turn, with
// per-analysis timing accumulated around each chunk. Compared with one full
// walk per analysis (the old record-then-analyze shape, once per Table 1
// cell), the trace's memory traffic is paid once per chunk instead of once
// per analysis — the same single-pass fan-out the streaming race.Engine
// performs, and a measurable speedup on the table benchmarks.
func MeasureAnalyses(entries []analysis.Entry, tr *trace.Trace) []Measurement {
	spec := analysis.SpecOf(tr)
	as := make([]analysis.Analysis, len(entries))
	durs := make([]time.Duration, len(entries))
	for i, entry := range entries {
		as[i] = entry.New(spec)
	}
	for lo := 0; lo < len(tr.Events); lo += measureChunk {
		hi := lo + measureChunk
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		chunk := tr.Events[lo:hi]
		for i, a := range as {
			start := time.Now()
			for _, e := range chunk {
				a.Handle(e)
			}
			durs[i] += time.Since(start)
		}
	}
	out := make([]Measurement, len(entries))
	for i, a := range as {
		out[i] = Measurement{
			Duration:  durs[i],
			MetaBytes: 8 * a.MetadataWeight(),
			Static:    a.Races().Static(),
			Dynamic:   a.Races().Dynamic(),
		}
	}
	return out
}

// noopSink defeats dead-code elimination in the baseline replay.
var noopSink uint64

// MeasureBaseline replays the event stream with no analysis — the
// "uninstrumented execution" stand-in. Each event carries a small fixed
// work quantum (a multiply–xor round) standing in for the
// program work the original execution performs between instrumentation
// points; without it, slowdown factors would be inflated by an arbitrary
// constant relative to the paper's, which divides by a JVM running real
// bytecode between events.
func MeasureBaseline(tr *trace.Trace) time.Duration {
	start := time.Now()
	var acc uint64 = 0x9E3779B97F4A7C15
	for _, e := range tr.Events {
		x := acc ^ uint64(e.Targ) ^ uint64(e.T)<<32 ^ uint64(e.Op)<<24
		for i := 0; i < 1; i++ {
			x *= 0xFF51AFD7ED558CCD
			x ^= x >> 33
		}
		acc = x
	}
	noopSink += acc
	return time.Since(start)
}

// ProgramBytes estimates the uninstrumented program's live-data footprint —
// the denominator of the paper's memory-usage factors (maximum resident set
// size of the uninstrumented run). The analog here is the program's own
// state: its variables, locks, volatiles, and thread stacks, plus a fixed
// runtime floor. Analysis metadata is measured on top of this, so the
// ratios track the paper's even though the trace itself (which has no
// analog in a live run) is excluded.
func ProgramBytes(tr *trace.Trace) int {
	return 16*tr.Vars + 32*tr.Locks + 16*tr.Volatiles + 4096*tr.Threads + 1<<14
}

// ProgramResult holds all measured cells for one workload.
type ProgramResult struct {
	Program  workload.Program
	Events   int
	Baseline time.Duration
	Cells    map[string]*Cell // keyed by analysis name
}

// Run measures the given analyses on the configured workloads.
func Run(cfg Config, names []string) []*ProgramResult {
	cfg = cfg.withDefaults()
	var results []*ProgramResult
	for _, p := range cfg.SelectedPrograms() {
		pr := &ProgramResult{Program: p, Cells: make(map[string]*Cell)}
		samples := make(map[string]*struct{ slow, mem, st, dyn []float64 })
		for _, name := range names {
			samples[name] = &struct{ slow, mem, st, dyn []float64 }{}
		}
		var entries []analysis.Entry
		var entryNames []string
		for _, name := range names {
			if entry, ok := analysis.ByName(name); ok {
				entries = append(entries, entry)
				entryNames = append(entryNames, name)
			}
		}
		var baselines []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			tr := p.Generate(cfg.ScaleDiv, cfg.Seed+int64(trial))
			pr.Events = tr.Len()
			base := MeasureBaseline(tr)
			if base <= 0 {
				base = time.Nanosecond
			}
			baselines = append(baselines, float64(base))
			tb := float64(ProgramBytes(tr))
			for i, m := range MeasureAnalyses(entries, tr) {
				s := samples[entryNames[i]]
				s.slow = append(s.slow, float64(m.Duration)/float64(base))
				s.mem = append(s.mem, (tb+float64(m.MetaBytes))/tb)
				s.st = append(s.st, float64(m.Static))
				s.dyn = append(s.dyn, float64(m.Dynamic))
			}
		}
		pr.Baseline = time.Duration(NewSample(baselines).Mean)
		for name, s := range samples {
			if len(s.slow) == 0 {
				continue
			}
			pr.Cells[name] = &Cell{
				Slowdown: NewSample(s.slow),
				Memory:   NewSample(s.mem),
				Static:   NewSample(s.st),
				Dynamic:  NewSample(s.dyn),
			}
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
