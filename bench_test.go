// Package repro_test holds the repository-level benchmarks: one per table
// racebench renders and the figures (regenerating the artifact each
// iteration at a reduced scale), per-analysis event throughput,
// vindication, and the SmartTrack ablation. cmd/racebench produces the
// full-scale tables; these benchmarks track the cost of producing them and
// the per-event costs the paper's run-time tables derive from.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bufio"
	"bytes"
	"math/bits"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vindicate"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race"

	_ "repro/internal/ft"
	_ "repro/internal/fto"
)

// benchScale keeps each iteration fast enough for -bench=. on a laptop
// while exercising every code path; cmd/racebench uses 4000.
const benchScale = 200000

// benchTrace caches one mid-size workload for the per-analysis benchmarks.
var benchTrace = func() *trace.Trace {
	p, _ := workload.ProgramByName("avrora")
	return p.Generate(80000, 1)
}()

// BenchmarkAnalysis measures per-event cost of every analysis in Table 1
// over the avrora-calibrated workload (the quantity behind Tables 3–6).
func BenchmarkAnalysis(b *testing.B) {
	for _, entry := range analysis.All() {
		entry := entry
		b.Run(entry.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.Run(entry.NewFor(benchTrace), benchTrace)
			}
			b.ReportMetric(float64(benchTrace.Len()), "events/op")
		})
	}
}

// BenchmarkAnalysisAllCells measures the multi-analysis fan-out: one pass
// of the avrora-calibrated workload through every registered Table 1 cell
// at once, sequentially and through the parallel pipeline at GOMAXPROCS.
// The parallel speedup requires cores: on a single-CPU machine the
// pipeline can only hide coordination, not overlap analysis work.
func BenchmarkAnalysisAllCells(b *testing.B) {
	var names []string
	for _, entry := range analysis.All() {
		names = append(names, entry.Name)
	}
	for _, cfg := range []struct {
		name string
		par  int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runEngine(benchTrace, names, cfg.par); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchTrace.Len()), "events/op")
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(benchTrace.Len())*float64(b.N)/s, "events/sec")
			}
		})
	}
}

// runEngine makes one full pass of tr, Feed to Close, through an engine
// running the named analyses at the given parallelism (1 = sequential).
func runEngine(tr *trace.Trace, names []string, parallelism int) error {
	eng, err := race.NewEngine(
		race.WithAnalysisNames(names...),
		race.WithParallelism(parallelism),
		race.WithUncheckedInput(),
	)
	if err != nil {
		return err
	}
	if err := eng.FeedBatch(tr.Events); err != nil {
		return err
	}
	_, err = eng.Close()
	return err
}

// fanoutTrace is the h2-calibrated, sync-dense workload of the benchmark's
// fanout15-par row, a fifth of its length.
var fanoutTrace = func() *trace.Trace {
	p, _ := workload.ProgramByName("h2")
	return p.Generate(20000, 1)
}()

// feedFanout15 runs tr through the full Table 1 matrix in one engine — 15
// cells, 7 computations — the way the fanout15-par row drives it.
func feedFanout15(tr *trace.Trace, parallelism int) error {
	return feed(tr, race.WithAnalysisNames(race.Detectors()...), race.WithParallelism(parallelism))
}

// feed runs tr through one engine built from opts the way the benchmark's
// engine rows drive it: 8192-event runs with a Sync barrier after each.
func feed(tr *trace.Trace, opts ...race.Option) error {
	eng, err := race.NewEngine(opts...)
	if err != nil {
		return err
	}
	for evs := tr.Events; len(evs) > 0; {
		n := min(len(evs), 8192)
		if err := eng.FeedBatch(evs[:n]); err != nil {
			return err
		}
		if err := eng.Sync(); err != nil {
			return err
		}
		evs = evs[n:]
	}
	_, err = eng.Close()
	return err
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// BenchmarkEngineFanout15 measures feedFanout15 over fanoutTrace sequentially
// and on two pipeline workers, as wall ns, CPU ns and allocated bytes per
// event. x-seq-cpu is the parallel run's CPU cost over the sequential one's:
// what running the seven computations on two cores adds to each event —
// scheduling, and cache lines moving between cores — which wall time hides.
func BenchmarkEngineFanout15(b *testing.B) {
	var seqCPU float64
	for _, cfg := range []struct {
		name string
		par  int
	}{
		{"sequential", 1},
		{"parallel2", 2},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cpu := cpuNanos()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := feedFanout15(fanoutTrace, cfg.par); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cpu = cpuNanos() - cpu
			runtime.ReadMemStats(&after)
			events := float64(fanoutTrace.Len()) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(cpu)/events, "cpu-ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
			if cfg.par == 1 {
				seqCPU = float64(cpu) / events
			} else if seqCPU > 0 {
				b.ReportMetric(float64(cpu)/events/seqCPU, "x-seq-cpu")
			}
		})
	}
}

// BenchmarkSameEpochMark measures the 15-cell engine's same-epoch marker
// (analysis.SameEpoch) alone over fanoutTrace, in the 8192-event runs
// feedFanout15 feeds: ns per event, and the share of events it marks — the
// accesses no computation looks up in its own metadata.
func BenchmarkSameEpochMark(b *testing.B) {
	evs := fanoutTrace.Events
	var same analysis.Same
	marked := 0
	for i := 0; i < b.N; i++ {
		var m analysis.SameEpoch
		marked = 0
		for lo := 0; lo < len(evs); lo += 8192 {
			run := evs[lo:min(lo+8192, len(evs))]
			same = same[:0].Cover(len(run))
			m.Mark(run, same, 0)
			for _, w := range same {
				marked += bits.OnesCount64(w)
			}
		}
	}
	events := float64(len(evs)) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(marked)/float64(len(evs)), "marked/event")
}

// TestFanout15AllocationBudget keeps the 15-cell engine's allocation from
// creeping back, on the fanout15-par row's own trace (h2/4000, seed 1), where
// one sequential pass reads 15.45 B/event with the graphs recording only the
// edges program order and an earlier edge do not imply, as varint deltas in
// 8 KiB byte chunks, 4-byte clock components, the rule (b) logs' clocks in
// flat chunks, most of them 12-byte records over their thread's base, and
// their 12-byte entries in fixed blocks, rule (a) cells naming logged clocks
// or, for WDC, viewing per-thread snapshots, ST-WDC sections viewing such
// snapshots too, every SmartTrack section in a 32-byte list node and 24-byte
// race records in chunks that are never copied (15.48 with the races in one
// append-doubled slice, 17.34–17.46 with 48-byte nodes and 32-byte race
// records as well, 19.95 with every edge but the rule (b) edges an earlier
// one implies as well, 21.90 with a rule (b) edge per consumed entry as well,
// 26.04 with 8-byte components as well, 27.90 with 64-byte nodes as well,
// 32.86 with WDC's cells owning copies and entries in append-doubled slices
// too, 42.25 with every logged clock whole too). The budget is that reading
// plus 10 %.
// The full length matters: per-engine tables are a fixed ≈ 6 MB, which would
// be 30 B/event of a reading over fanoutTrace.
func TestFanout15AllocationBudget(t *testing.T) {
	const budget = 17.0 // B/event
	p, _ := workload.ProgramByName("h2")
	tr := p.Generate(4000, 1)
	if got := allocPerEvent(t, tr, func() error { return feedFanout15(tr, 1) }); got > budget {
		t.Errorf("the 15-cell engine allocated %.1f B/event, budget %.1f", got, budget)
	}
}

// TestNestedAllocationBudget does the same for the detect-nested row's engine
// and trace (the default ST-WDC cell, xalan/100, seed 1), where critical
// sections are most of what is allocated: one pass reads 4.63 B/event with
// each release a 16-byte view of its thread's snapshot of its clock in a
// 32-byte list node, 4-byte clock components and 24-byte race records in
// chunks that are never copied, 5.50 with the races in one append-doubled
// slice, 7.07 with 48-byte nodes and 32-byte race records as well, 7.63 with
// 8-byte components as well, 8.94 with 32-byte views in 64-byte nodes as
// well, 12.9 when each section owned a copy. The budget is that reading plus
// 10 %.
func TestNestedAllocationBudget(t *testing.T) {
	const budget = 5.1 // B/event
	p, _ := workload.ProgramByName("xalan")
	tr := p.Generate(100, 1)
	if got := allocPerEvent(t, tr, func() error { return feed(tr) }); got > budget {
		t.Errorf("the ST-WDC engine allocated %.2f B/event, budget %.1f", got, budget)
	}
}

// allocPerEvent returns the bytes run allocates per event of tr.
func allocPerEvent(t *testing.T, tr *trace.Trace, run func() error) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
	t.Logf("%.2f B/event over %d events", got, tr.Len())
	return got
}

// shiftedTrace is avrora/2000 (700k events) with every variable id moved
// up by by.
func shiftedTrace(by uint32) *trace.Trace {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(2000, 1)
	for i, e := range tr.Events {
		if e.Op.IsAccess() {
			tr.Events[i].Targ += by
		}
	}
	return tr
}

// BenchmarkShiftedIDs runs the default ST-WDC engine over avrora/2000
// with its variable ids as generated, from 0, and moved up by 2^31, in
// turn: dense ids that start far from 0 live in the per-id tables' windows
// too (TestTableWindowFollowsDenseIDs pins that), so shifted/from-0 — a
// ratio of the two sides' ns/event — reads about 1, against about 2 with
// every shifted lookup in the tables' maps.
func BenchmarkShiftedIDs(b *testing.B) {
	trs := []*trace.Trace{shiftedTrace(0), shiftedTrace(1 << 31)}
	var took [2]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, tr := range trs {
			t0 := time.Now()
			if err := feed(tr); err != nil {
				b.Fatal(err)
			}
			took[i] += time.Since(t0)
		}
	}
	events := float64(b.N * trs[0].Len())
	b.ReportMetric(float64(took[0].Nanoseconds())/events, "ns/event-from-0")
	b.ReportMetric(float64(took[1].Nanoseconds())/events, "ns/event-from-2^31")
	b.ReportMetric(float64(took[1])/float64(took[0]), "shifted/from-0")
}

// BenchmarkCheckerStep measures the incremental well-formedness checker
// alone: the layer every checked engine entry point pays per event.
func BenchmarkCheckerStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ck := trace.NewChecker()
		for _, e := range benchTrace.Events {
			if err := ck.Step(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(benchTrace.Len()), "events/op")
}

// BenchmarkEngineFrontEnd measures what the engine adds around one ST-WDC
// analysis (BenchmarkAnalysis/ST-WDC is the bare cell): the checked
// default against WithUncheckedInput, fed as the whole trace in one
// FeedBatch, which commits it in 8192-event pieces.
func BenchmarkEngineFrontEnd(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts []race.Option
	}{
		{"checked", nil},
		{"unchecked", []race.Option{race.WithUncheckedInput()}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := race.NewEngine(cfg.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.FeedBatch(benchTrace.Events); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchTrace.Len()), "events/op")
		})
	}
}

// BenchmarkWireEventsFrame measures one hop of the ingest path per event:
// an 8192-event Events frame encoded by WriteEvents and decoded by
// ReadHeader+ReadEvents into a reused slab (steady state: 0 B/op).
func BenchmarkWireEventsFrame(b *testing.B) {
	evs := benchTrace.Events[:8192]
	var pipe bytes.Buffer
	bw := bufio.NewWriterSize(&pipe, 1<<16)
	br := bufio.NewReaderSize(&pipe, 1<<16)
	slab := make([]trace.Event, 0, len(evs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.WriteEvents(bw, evs); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		_, n, err := wire.ReadHeader(br)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadEvents(br, n, slab); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

// BenchmarkLogAppendBatch measures the journal's write-ahead append per
// event: 8192-event batches into a racelog without fsync (rotation every
// 1 Mi events included), the cost a durable session adds before the engine.
func BenchmarkLogAppendBatch(b *testing.B) {
	evs := benchTrace.Events[:8192]
	l, err := store.Open(b.TempDir(), store.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AppendBatch(evs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Characteristics(b *testing.B) {
	cfg := bench.Config{ScaleDiv: benchScale}
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable2(cfg); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3Baselines(b *testing.B) {
	cfg := bench.Config{ScaleDiv: benchScale, Programs: []string{"avrora", "pmd", "xalan"}}
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable3(cfg, false); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4Geomean(b *testing.B) {
	cfg := bench.Config{ScaleDiv: benchScale, Programs: []string{"avrora", "pmd", "xalan"}}
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable4(cfg); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable6Memory(b *testing.B) {
	cfg := bench.Config{ScaleDiv: benchScale, Programs: []string{"h2", "luindex"}}
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable6(cfg, false); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable7Races(b *testing.B) {
	cfg := bench.Config{ScaleDiv: benchScale, Programs: []string{"sunflow", "jython"}}
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable7(cfg, false); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable8to11ConfidenceIntervals(b *testing.B) {
	cfg := bench.Config{ScaleDiv: benchScale, Trials: 3, Programs: []string{"pmd"}}
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable7(cfg, true); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable12Cases(b *testing.B) {
	cfg := bench.Config{ScaleDiv: benchScale}
	for i := 0; i < b.N; i++ {
		if out := bench.RenderTable12(cfg); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigures regenerates the Figure 1–4 verdicts (all analyses over
// all example executions plus vindication).
func BenchmarkFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.RenderFigures(); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkVindication measures witness construction on workload races.
func BenchmarkVindication(b *testing.B) {
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(80000, 3)
	v, err := vindicate.New(tr)
	if err != nil {
		b.Fatal(err)
	}
	races := v.Races()
	if len(races) == 0 {
		b.Fatal("no races to vindicate")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := races[i%len(races)]
		v.Race(r.Index, vindicate.Options{Seed: int64(i)})
	}
}

// BenchmarkAblationAcquireQueues isolates SmartTrack's final optimization
// (§4.2): epoch-valued rule (b) acquire queues versus Algorithm 1/2-style
// vector-clock queues.
func BenchmarkAblationAcquireQueues(b *testing.B) {
	p, _ := workload.ProgramByName("h2") // highest lock pressure
	tr := p.Generate(80000, 1)
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"epoch-queues", core.Options{}},
		{"vc-queues", core.Options{VectorAcquireQueues: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := core.NewWithOptions(analysis.DC, cfg.opts)
				a.HandleRun(tr.Events, nil)
			}
		})
	}
}

// BenchmarkRuntimeRecording measures the public Runtime's per-event
// recording overhead (the paper's record phase, §4.3).
func BenchmarkRuntimeRecording(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := race.NewRuntime()
		t1 := rt.Main()
		rt.Acquire(t1, "m")
		for j := 0; j < 100; j++ {
			rt.Read(t1, "x")
			rt.Write(t1, "x")
		}
		rt.Release(t1, "m")
	}
}

// TestAblationEquivalence pins down that the ablation toggle does not
// change results, only costs.
func TestAblationEquivalence(t *testing.T) {
	p, _ := workload.ProgramByName("jython")
	tr := p.Generate(400000, 5)
	a := core.New(analysis.DC)
	v := core.NewWithOptions(analysis.DC, core.Options{VectorAcquireQueues: true})
	a.HandleRun(tr.Events, nil)
	v.HandleRun(tr.Events, nil)
	if a.Races().Static() != v.Races().Static() || a.Races().Dynamic() != v.Races().Dynamic() {
		t.Fatalf("ablation changed results: %d/%d vs %d/%d",
			a.Races().Static(), a.Races().Dynamic(), v.Races().Static(), v.Races().Dynamic())
	}
}
