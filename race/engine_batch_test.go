package race_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/race"
)

// TestFeedBatchMatchesFeed: committing a stream as arbitrary-sized runs
// through FeedBatch, the whole stream in one run included, produces reports
// byte-identical to one-event runs, on both the sequential engine and the
// parallel pipeline.
func TestFeedBatchMatchesFeed(t *testing.T) {
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(400000, 2)
	names := []string{"ST-WDC", "FTO-HB", "Unopt-DC"}

	seq, err := race.NewEngine(race.WithAnalysisNames(names...))
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(feedAll(t, seq, tr))

	for _, cfg := range []struct {
		par, run int
	}{
		{0, 1}, {0, 13}, {0, 4096}, {2, 13}, {4, 1024}, {0, len(tr.Events)}, {2, len(tr.Events)},
	} {
		opts := []race.Option{race.WithAnalysisNames(names...)}
		if cfg.par > 0 {
			opts = append(opts, race.WithParallelism(cfg.par))
		}
		eng, err := race.NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(tr.Events); lo += cfg.run {
			hi := min(lo+cfg.run, len(tr.Events))
			if err := eng.FeedBatch(tr.Events[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(rep); got != want {
			t.Errorf("par=%d run=%d: report differs from one-event runs\n--- batch ---\n%s--- one-event runs ---\n%s",
				cfg.par, cfg.run, got, want)
		}
	}
}

// TestFeedBatchOnRaceDelivery: online callbacks still arrive with gapless
// per-analysis sequence numbers when runs commit through FeedBatch, and
// the delivered set matches the final report.
func TestFeedBatchOnRaceDelivery(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 1)
	var (
		mu        sync.Mutex
		nextSeq   = make(map[string]int)
		delivered = make(map[string]int)
	)
	eng, err := race.NewEngine(
		race.WithAnalysisNames("ST-WDC", "FTO-HB"),
		race.WithOnRace(func(ri race.RaceInfo) {
			mu.Lock()
			if ri.Seq != nextSeq[ri.Analysis] {
				t.Errorf("%s: seq %d delivered, want %d", ri.Analysis, ri.Seq, nextSeq[ri.Analysis])
			}
			nextSeq[ri.Analysis]++
			delivered[ri.Analysis]++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tr.Events); lo += 57 {
		hi := min(lo+57, len(tr.Events))
		if err := eng.FeedBatch(tr.Events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rep.Analyses() {
		sub, _ := rep.ByAnalysis(name)
		if delivered[name] != sub.Dynamic() {
			t.Errorf("%s: %d delivered online, report has %d", name, delivered[name], sub.Dynamic())
		}
	}
}

// TestFeedBatchPoisonMidRun: an ill-formed event inside a run analyzes the
// valid prefix, poisons the engine with the checker's error, and leaves
// Fed() at the prefix length — identical to per-event feeding.
func TestFeedBatchPoisonMidRun(t *testing.T) {
	run := []race.Event{
		{T: 0, Op: race.OpWrite, Targ: 0},
		{T: 0, Op: race.OpAcquire, Targ: 0},
		{T: 0, Op: race.OpRelease, Targ: 0},
		{T: 0, Op: race.OpRelease, Targ: 0}, // release of unheld lock
		{T: 0, Op: race.OpWrite, Targ: 1},
	}
	eng, err := race.NewEngine(race.WithAnalysisNames("ST-WDC"))
	if err != nil {
		t.Fatal(err)
	}
	ferr := eng.FeedBatch(run)
	if ferr == nil || !strings.Contains(ferr.Error(), "ill-formed") {
		t.Fatalf("FeedBatch = %v, want ill-formed stream error", ferr)
	}
	if eng.Fed() != 3 {
		t.Errorf("Fed = %d, want 3 (the valid prefix)", eng.Fed())
	}
	if err := eng.FeedBatch([]race.Event{{T: 0, Op: race.OpRead, Targ: 0}}); err != ferr {
		t.Errorf("poisoned engine accepted another batch: %v", err)
	}
	if _, err := eng.Close(); err == nil {
		t.Error("poisoned engine closed cleanly")
	}
}

// TestSyncBarrier: interleaving Sync calls into a parallel feed is a true
// barrier (no deadlock, no report corruption) and a no-op on sequential
// engines; the final report still matches a plain sequential run.
func TestSyncBarrier(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 3)
	names := []string{"ST-WDC", "FTO-HB", "Unopt-WDC"}

	seq, err := race.NewEngine(race.WithAnalysisNames(names...))
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(feedAll(t, seq, tr))

	for _, par := range []int{0, 2, 3} {
		opts := []race.Option{race.WithAnalysisNames(names...)}
		if par > 0 {
			opts = append(opts, race.WithParallelism(par), race.WithBatchSize(64))
		}
		eng, err := race.NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range tr.Events {
			if err := eng.FeedBatch([]race.Event{ev}); err != nil {
				t.Fatal(err)
			}
			if i%997 == 0 {
				if err := eng.Sync(); err != nil {
					t.Fatalf("par=%d: Sync at event %d: %v", par, i, err)
				}
			}
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(rep); got != want {
			t.Errorf("par=%d: report differs after interleaved Sync calls", par)
		}
	}
}
