package race_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/workload"
	"repro/race"
)

// spillEntries returns the racelog subdirectories an engine created in a
// spill dir.
func spillEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestSpillVindicatesFigure1FromDisk is the tentpole's engine-layer
// acceptance: a spill-enabled engine pushes the paper's Figure 1 stream to
// a racelog mid-stream (threshold 2 of 8 events) and still vindicates the
// predictable race on x with a verified witness, replayed from disk.
func TestSpillVindicatesFigure1FromDisk(t *testing.T) {
	fig := workload.Figure1()
	dir := t.TempDir()
	eng, err := race.NewEngine(
		race.WithAnalysisNames("ST-WDC"),
		race.WithVindication(),
		race.WithSpill(dir, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedTrace(fig.Trace); err != nil {
		t.Fatal(err)
	}
	if got := spillEntries(t, dir); len(got) != 1 {
		t.Fatalf("mid-stream spill racelog missing: dir holds %v", got)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	races := rep.Races()
	if len(races) == 0 {
		t.Fatal("no race reported on Figure 1")
	}
	found := false
	for _, rc := range races {
		if rc.Var != fig.RaceVar {
			continue
		}
		found = true
		res, ok := rep.Vindication(rc.Index)
		if !ok || !res.Vindicated || len(res.Witness) == 0 {
			t.Fatalf("Figure 1 race not vindicated from disk: ok=%v res=%+v", ok, res)
		}
	}
	if !found {
		t.Fatalf("no race on Figure 1's x (var %d): %+v", fig.RaceVar, races)
	}
	if got := spillEntries(t, dir); len(got) != 0 {
		t.Fatalf("Close left spill racelog behind: %v", got)
	}
}

// TestSpillReportMatchesInMemory: spilling the retained stream must not
// change anything observable — the Close report (vindication verdicts and
// witnesses included) is byte-identical to the all-in-memory engine's, for
// every Table 1 cell in the fan-out.
func TestSpillReportMatchesInMemory(t *testing.T) {
	names := race.Detectors()
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 7, Threads: 5, Chans: 3, MaxCap: 2, Locks: 2, Vars: 5, Events: 1500,
	})

	run := func(opts ...race.Option) []byte {
		t.Helper()
		opts = append([]race.Option{race.WithAnalysisNames(names...), race.WithVindication()}, opts...)
		eng, err := race.NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedTrace(tr); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	want := run()
	for _, threshold := range []int{1, 100, 1000} {
		got := run(race.WithSpill(t.TempDir(), threshold))
		if !bytes.Equal(got, want) {
			t.Errorf("threshold %d: spilled report differs from in-memory report\n--- spill ---\n%s\n--- memory ---\n%s",
				threshold, got, want)
		}
	}
}

// TestSpillAbortCleansUp: Abort discards an active spill racelog.
func TestSpillAbortCleansUp(t *testing.T) {
	dir := t.TempDir()
	eng, err := race.NewEngine(race.WithVindication(), race.WithSpill(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	b := race.NewBuilder()
	for i := 0; i < 64; i++ {
		b.Write("T0", "x")
	}
	if err := eng.FeedTrace(b.Build()); err != nil {
		t.Fatal(err)
	}
	if got := spillEntries(t, dir); len(got) != 1 {
		t.Fatalf("spill racelog missing before abort: %v", got)
	}
	eng.Abort()
	if got := spillEntries(t, dir); len(got) != 0 {
		t.Fatalf("Abort left spill racelog behind: %v", got)
	}
}

// TestSpillWithoutVindicationIsInert: no retention means nothing to spill;
// the engine never touches the directory.
func TestSpillWithoutVindicationIsInert(t *testing.T) {
	dir := t.TempDir()
	eng, err := race.NewEngine(race.WithSpill(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	b := race.NewBuilder()
	for i := 0; i < 64; i++ {
		b.Write("T0", "x")
	}
	if err := eng.FeedTrace(b.Build()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := spillEntries(t, dir); len(got) != 0 {
		t.Fatalf("spill without vindication wrote to disk: %v", got)
	}
}
