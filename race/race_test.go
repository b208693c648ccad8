package race_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/race"
)

func figure1() *race.Trace {
	b := race.NewBuilder()
	b.Read("T1", "x")
	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m")
	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
	b.Write("T2", "x")
	return b.Build()
}

func mustAnalyze(t *testing.T, tr *race.Trace, rel race.Relation, lvl race.Level) *race.Report {
	t.Helper()
	rep, err := race.Analyze(tr, rel, lvl)
	if err != nil {
		t.Fatalf("Analyze(%v, %v): %v", rel, lvl, err)
	}
	return rep
}

func TestAnalyzePredictiveVsHB(t *testing.T) {
	tr := figure1()
	if got := mustAnalyze(t, tr, race.HB, race.FTO).Dynamic(); got != 0 {
		t.Errorf("HB races = %d, want 0", got)
	}
	for _, rel := range []race.Relation{race.WCP, race.DC, race.WDC} {
		if got := mustAnalyze(t, tr, rel, race.SmartTrack).Dynamic(); got != 1 {
			t.Errorf("%v races = %d, want 1", rel, got)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := race.Analyze(figure1(), race.HB, race.SmartTrack); err == nil {
		t.Error("Analyze on an N/A cell must return an error, not panic")
	}
	// An ill-formed trace (release of a lock never acquired) errors too.
	tr := &race.Trace{
		Events:  []race.Event{{T: 0, Op: race.OpRelease, Targ: 0}},
		Threads: 1, Locks: 1,
	}
	if _, err := race.Analyze(tr, race.WDC, race.SmartTrack); err == nil {
		t.Error("Analyze on an ill-formed trace must return an error")
	}
}

// TestNewRejectsNACells: SmartTrack-HB is N/A in Table 1, through Analyze
// and through the engine; SmartTrack-DC is not.
func TestNewRejectsNACells(t *testing.T) {
	tr := figure1()
	if _, err := race.Analyze(tr, race.HB, race.SmartTrack); err == nil {
		t.Error("SmartTrack-HB must be rejected")
	}
	if _, err := race.NewEngine(race.WithAnalysisNames("ST-HB")); err == nil {
		t.Error("engine: ST-HB must be rejected")
	}
	if _, err := race.Analyze(tr, race.DC, race.SmartTrack); err != nil {
		t.Errorf("ST-DC rejected: %v", err)
	}
	if _, err := race.NewEngine(race.WithAnalysisNames("ST-DC")); err != nil {
		t.Errorf("engine: ST-DC rejected: %v", err)
	}
}

func TestDetectorsAndByName(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("Detectors() returned %d analyses, want 15", len(names))
	}
	if _, err := race.AnalyzeByName(figure1(), "ST-WDC"); err != nil {
		t.Fatal(err)
	}
	if _, err := race.AnalyzeByName(figure1(), "nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestReportDetails(t *testing.T) {
	rep := mustAnalyze(t, figure1(), race.WDC, race.SmartTrack)
	if rep.Static() != 1 {
		t.Errorf("static = %d", rep.Static())
	}
	races := rep.Races()
	if len(races) != 1 || !races[0].Write {
		t.Fatalf("races = %v", races)
	}
	if len(rep.RaceVars()) != 1 {
		t.Errorf("race vars = %v", rep.RaceVars())
	}
}

func TestVindicateEndToEnd(t *testing.T) {
	tr := figure1()
	rep := mustAnalyze(t, tr, race.WDC, race.Unopt)
	races := rep.Races()
	if len(races) == 0 {
		t.Fatal("expected a race")
	}
	res, err := race.Vindicate(tr, races[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vindicated {
		t.Fatalf("vindication failed: %s", res.Reason)
	}
	if _, err := race.Vindicate(tr, tr.Len()+5); err == nil {
		t.Error("out-of-range race index must return an error, not panic")
	}
	e2 := races[0].Index
	// The witness's final event is the detecting access; locate e1 from the
	// witness itself via VerifyWitness (it validates the pair positions).
	if len(res.Witness) < 2 {
		t.Fatal("witness too short")
	}
	_ = e2
}

func TestTraceIO(t *testing.T) {
	tr := figure1()
	var bin, txt bytes.Buffer
	if err := race.WriteTrace(&bin, tr); err != nil {
		t.Fatal(err)
	}
	got, err := race.ReadTrace(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Error("binary round-trip lost events")
	}
	if err := race.WriteTraceText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	got2, err := race.ReadTraceText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != tr.Len() {
		t.Error("text round-trip lost events")
	}
	if err := race.CheckTrace(got); err != nil {
		t.Error(err)
	}
}

// TestRuntimeFigure1Live reenacts Figure 1 with real goroutines through the
// Runtime recorder: channels pin down the paper's interleaving, and the
// predictive analyses find the race HB misses.
func TestRuntimeFigure1Live(t *testing.T) {
	rt := race.NewRuntime()
	var x, y, z int
	var m sync.Mutex

	t1 := rt.Main()
	t2 := rt.Go(t1)
	step := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-step
		rt.Acquire(t2, &m)
		m.Lock()
		rt.Read(t2, &z)
		_ = z
		m.Unlock()
		rt.Release(t2, &m)
		rt.Write(t2, &x)
		x = 42
	}()

	rt.Read(t1, &x)
	_ = x
	rt.Acquire(t1, &m)
	m.Lock()
	rt.Write(t1, &y)
	y = 1
	m.Unlock()
	rt.Release(t1, &m)
	close(step)
	wg.Wait()

	hb, err := rt.Analyze(race.HB, race.FTO)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Dynamic() != 0 {
		t.Errorf("HB found %d races, want 0", hb.Dynamic())
	}
	st, err := rt.Analyze(race.DC, race.SmartTrack)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dynamic() != 1 {
		t.Errorf("SmartTrack-DC found %d races, want 1", st.Dynamic())
	}
}

func TestRuntimeReentrancyFiltered(t *testing.T) {
	rt := race.NewRuntime()
	var m sync.Mutex
	t1 := rt.Main()
	rt.Acquire(t1, &m)
	rt.Acquire(t1, &m) // reentrant: filtered
	rt.Read(t1, "x")
	rt.Release(t1, &m)
	rt.Release(t1, &m)
	tr, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 { // acq, rd, rel
		t.Errorf("trace = %v", tr.Events)
	}
}

func TestRuntimeSnapshotClosesOpenCS(t *testing.T) {
	rt := race.NewRuntime()
	t1 := rt.Main()
	rt.Acquire(t1, "m")
	rt.Write(t1, "x")
	tr, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := race.CheckTrace(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Events[len(tr.Events)-1].Op.String() != "rel" {
		t.Error("open critical section not closed in snapshot")
	}
}

func TestRuntimeReleaseUnheldErrors(t *testing.T) {
	rt := race.NewRuntime()
	rt.Release(rt.Main(), "m") // must not panic
	if rt.Err() == nil {
		t.Error("release of unheld lock must record a runtime error")
	}
	if _, err := rt.Snapshot(); err == nil {
		t.Error("Snapshot after a recording error must return it")
	}
}

func TestRuntimeLocked(t *testing.T) {
	rt := race.NewRuntime()
	t1 := rt.Main()
	rt.Locked(t1, "m", func() { rt.Write(t1, "x") })
	tr, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Errorf("trace = %v", tr.Events)
	}
}

func TestRuntimeForkJoinOrders(t *testing.T) {
	rt := race.NewRuntime()
	t1 := rt.Main()
	rt.Write(t1, "x")
	t2 := rt.Go(t1)
	rt.Write(t2, "x")
	rt.Join(t1, t2)
	rt.Write(t1, "x")
	rep, err := rt.Analyze(race.WDC, race.SmartTrack)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dynamic() != 0 {
		t.Errorf("fork/join ordered accesses raced: %v", rep.Races())
	}
}

func TestRuntimeVolatilesOrder(t *testing.T) {
	rt := race.NewRuntime()
	t1 := rt.Main()
	t2 := rt.Go(t1)
	rt.Write(t1, "data")
	rt.VolatileWrite(t1, "flag")
	rt.VolatileRead(t2, "flag")
	rt.Write(t2, "data")
	rep, err := rt.Analyze(race.DC, race.SmartTrack)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dynamic() != 0 {
		t.Errorf("volatile-ordered accesses raced: %v", rep.Races())
	}
}

func TestRuntimeSiteDedup(t *testing.T) {
	rt := race.NewRuntime()
	t1 := rt.Main()
	t2 := rt.Go(t1)
	// Each thread's volatile tick is a sequence point: it merges the
	// thread's buffered accesses into the linearization (keeping the writes
	// interleaved across threads) and advances its epoch (keeping repeated
	// writes from coalescing under the same-epoch check). The per-thread
	// tick variables are distinct, so no cross-thread ordering arises.
	for i := 0; i < 3; i++ {
		rt.Write(t1, "x") // one source line
		rt.VolatileWrite(t1, "tick1")
		rt.Write(t2, "x") // another source line
		rt.VolatileWrite(t2, "tick2")
	}
	rep, err := rt.Analyze(race.WDC, race.SmartTrack)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dynamic() < 3 {
		t.Errorf("dynamic = %d", rep.Dynamic())
	}
	if rep.Static() > 2 {
		t.Errorf("static = %d, want ≤ 2 (two source lines)", rep.Static())
	}
}
