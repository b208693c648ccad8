package race_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/race"
)

// renderReport serializes every observable fact of a report — analysis
// order, per-analysis counts, and every dynamic race field in detection
// order — so parallel/sequential equivalence can be asserted byte for
// byte rather than count for count.
func renderReport(rep *race.Report) string {
	var b strings.Builder
	for _, name := range rep.Analyses() {
		sub, ok := rep.ByAnalysis(name)
		if !ok {
			fmt.Fprintf(&b, "%s: MISSING\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s: static=%d dynamic=%d vars=%v\n", name, sub.Static(), sub.Dynamic(), sub.RaceVars())
		for _, ri := range sub.Races() {
			fmt.Fprintf(&b, "  seq=%d var=%d loc=%d idx=%d wr=%v\n", ri.Seq, ri.Var, ri.Loc, ri.Index, ri.Write)
		}
	}
	return b.String()
}

// allCellNames returns the names of every registered Table 1 analysis.
func allCellNames() []string { return race.Detectors() }

// parallelConformanceTraces is the workload spread the parallel engine
// must match the sequential engine on: the DaCapo-calibrated workloads,
// channel-heavy traces (volatile-dense, so sync-point flushing is
// exercised), and random traces with mid-stream thread discovery
// (ForkJoin makes threads appear long after the engine was built).
func parallelConformanceTraces(t *testing.T) map[string]*race.Trace {
	t.Helper()
	out := make(map[string]*race.Trace)
	for _, name := range []string{"avrora", "h2", "pmd"} {
		p, ok := workload.ProgramByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		out[name] = p.Generate(400000, 1)
	}
	for seed := int64(0); seed < 3; seed++ {
		out[fmt.Sprintf("channels-%d", seed)] = workload.Channels(workload.ChannelsConfig{
			Seed: seed, Threads: 6, Chans: 4, MaxCap: 3, Locks: 2, Vars: 6, Events: 2000,
		})
		out[fmt.Sprintf("random-forks-%d", seed)] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 6, Vars: 8, Locks: 4, Events: 3000, ForkJoin: true, Volatiles: 2,
		})
	}
	return out
}

func feedAll(t *testing.T, eng *race.Engine, tr *race.Trace) *race.Report {
	t.Helper()
	for i := range tr.Events {
		if err := eng.FeedBatch(tr.Events[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParallelEngineMatchesSequential proves the tentpole's determinism
// claim: for every workload, a parallel engine running all 15 Table 1
// cells produces a Close report byte-for-byte identical to the sequential
// engine's — across several parallelism degrees and batch sizes,
// including batch sizes small enough to exercise ring backpressure.
// Threads forked mid-stream are discovered by the workers.
func TestParallelEngineMatchesSequential(t *testing.T) {
	names := allCellNames()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}
	for trName, tr := range parallelConformanceTraces(t) {
		seq, err := race.NewEngine(race.WithAnalysisNames(names...))
		if err != nil {
			t.Fatal(err)
		}
		want := renderReport(feedAll(t, seq, tr))
		for _, cfg := range []struct{ par, batch int }{
			{2, 0}, {4, 64}, {8, 7}, {runtime.GOMAXPROCS(0), 1024}, {32, 0},
		} {
			par, err := race.NewEngine(
				race.WithAnalysisNames(names...),
				race.WithParallelism(cfg.par),
				race.WithBatchSize(cfg.batch),
			)
			if err != nil {
				t.Fatal(err)
			}
			got := renderReport(feedAll(t, par, tr))
			if got != want {
				t.Errorf("%s: parallel(%d, batch %d) report differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s",
					trName, cfg.par, cfg.batch, want, got)
			}
		}
	}
}

// TestParallelEngineOnRaceDelivery checks the single-drainer callback
// contract: per-analysis sequence numbers arrive gapless and in order,
// the total delivered set matches the final report exactly, and no two
// callbacks overlap (guarded counter; the -race run makes any callback
// data race fatal).
func TestParallelEngineOnRaceDelivery(t *testing.T) {
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(200000, 3)
	names := allCellNames()

	var mu sync.Mutex
	inFlight := 0
	nextSeq := make(map[string]int)
	delivered := make(map[string]int)
	eng, err := race.NewEngine(
		race.WithAnalysisNames(names...),
		race.WithParallelism(4),
		race.WithBatchSize(128),
		race.WithOnRace(func(ri race.RaceInfo) {
			mu.Lock()
			inFlight++
			if inFlight != 1 {
				t.Error("onRace callbacks overlap")
			}
			if ri.Seq != nextSeq[ri.Analysis] {
				t.Errorf("%s: seq %d delivered, want %d", ri.Analysis, ri.Seq, nextSeq[ri.Analysis])
			}
			nextSeq[ri.Analysis]++
			delivered[ri.Analysis]++
			inFlight--
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := feedAll(t, eng, tr)
	for _, name := range rep.Analyses() {
		sub, _ := rep.ByAnalysis(name)
		if delivered[name] != sub.Dynamic() {
			t.Errorf("%s: %d races delivered online, report has %d", name, delivered[name], sub.Dynamic())
		}
	}
}

// TestParallelEngineFeedCloseStress drives the pipeline from a feeding
// goroutine while Close runs on the test goroutine, over and over with
// adversarial batch sizes — under -race this proves the rings, the batch
// pool, the drainer, and the worker join in Close are data-race-free.
func TestParallelEngineFeedCloseStress(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(2000000, 2)
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for i := 0; i < iters; i++ {
		var races int
		var mu sync.Mutex
		eng, err := race.NewEngine(
			race.WithAnalysisNames("ST-WDC", "FTO-DC", "FTO-HB", "Unopt-WDC"),
			race.WithParallelism(4),
			race.WithBatchSize(1+i*13),
			race.WithOnRace(func(race.RaceInfo) { mu.Lock(); races++; mu.Unlock() }),
		)
		if err != nil {
			t.Fatal(err)
		}
		fed := make(chan error, 1)
		go func() {
			for _, ev := range tr.Events {
				if err := eng.FeedBatch([]race.Event{ev}); err != nil {
					fed <- err
					return
				}
			}
			fed <- nil
		}()
		if err := <-fed; err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := races
		mu.Unlock()
		want := 0
		for _, name := range rep.Analyses() {
			sub, _ := rep.ByAnalysis(name)
			want += sub.Dynamic()
		}
		if got != want {
			t.Fatalf("iter %d: %d online races, report has %d", i, got, want)
		}
	}
}

// TestParallelEngineErrorPoisoning: an ill-formed stream poisons a
// parallel engine exactly as it does a sequential one — synchronously
// from FeedBatch, with the same error from then on, and Close still joins the
// workers cleanly.
func TestParallelEngineErrorPoisoning(t *testing.T) {
	eng, err := race.NewEngine(
		race.WithAnalysisNames("ST-WDC", "FTO-HB"),
		race.WithParallelism(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch([]race.Event{{T: 0, Op: race.OpWrite, Targ: 0}}); err != nil {
		t.Fatal(err)
	}
	// Release of a lock thread 0 does not hold: the incremental checker
	// must reject it on the feeding goroutine.
	ferr := eng.FeedBatch([]race.Event{{T: 0, Op: race.OpRelease, Targ: 0}})
	if ferr == nil {
		t.Fatal("ill-formed event accepted by parallel engine")
	}
	if err := eng.FeedBatch([]race.Event{{T: 0, Op: race.OpRead, Targ: 0}}); err == nil {
		t.Fatal("poisoned engine accepted another event")
	}
	if _, err := eng.Close(); err == nil {
		t.Fatal("poisoned engine closed without error")
	}
}

// TestParallelEngineOnRacePanicPoisons: a panicking OnRace callback must
// not crash the process (it runs on the drainer goroutine, where nothing
// can recover it) — it poisons the engine, which Close reports.
func TestParallelEngineOnRacePanicPoisons(t *testing.T) {
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(400000, 3)
	eng, err := race.NewEngine(
		race.WithAnalysisNames("ST-WDC", "FTO-HB"),
		race.WithParallelism(2),
		race.WithOnRace(func(race.RaceInfo) { panic("callback bug") }),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := eng.FeedBatch([]race.Event{ev}); err != nil {
			break // poisoned mid-stream is fine; Close must still error
		}
	}
	if _, err := eng.Close(); err == nil || !strings.Contains(err.Error(), "OnRace callback panicked") {
		t.Fatalf("Close error = %v, want OnRace panic poison", err)
	}
}

// TestParallelEngineVindication: WithVindication retains the stream on
// the feeding side, so the record & replay split works unchanged under
// the parallel pipeline.
func TestParallelEngineVindication(t *testing.T) {
	// Two sibling threads write x unordered: a true predictable race.
	b2 := race.NewBuilder()
	b2.Fork("T0", "T1")
	b2.Fork("T0", "T2")
	b2.Write("T1", "x")
	b2.Write("T2", "x")
	b2.Join("T0", "T1")
	b2.Join("T0", "T2")
	tr2 := b2.Build()

	verdicts := func(par int) string {
		eng, err := race.NewEngine(
			race.WithAnalysisNames("ST-WDC", "FTO-WDC"),
			race.WithParallelism(par),
			race.WithVindication(),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep := feedAll(t, eng, tr2)
		var b strings.Builder
		fmt.Fprintf(&b, "%s", renderReport(rep))
		for _, ri := range rep.Races() {
			if res, ok := rep.Vindication(ri.Index); ok {
				fmt.Fprintf(&b, "vind idx=%d ok=%v reason=%q\n", ri.Index, res.Vindicated, res.Reason)
			}
		}
		return b.String()
	}
	seq := verdicts(1)
	par := verdicts(2)
	if seq != par {
		t.Errorf("vindication differs:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "dynamic=1") {
		t.Errorf("expected a detected race, got:\n%s", seq)
	}
}
