package race_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/workload"
	"repro/race"
)

// conformanceTraces is a spread of workloads for equivalence testing:
// paper figures, random traces with forks/volatiles, and a DaCapo-
// calibrated workload.
func conformanceTraces(t *testing.T) map[string]*race.Trace {
	t.Helper()
	out := make(map[string]*race.Trace)
	for _, fig := range workload.Figures() {
		out[fig.Name] = fig.Trace
	}
	for seed := int64(0); seed < 6; seed++ {
		out["random-basic-"+string(rune('a'+seed))] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 4, Vars: 5, Locks: 3, Events: 300, Volatiles: 1,
		})
		out["random-forks-"+string(rune('a'+seed))] = workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 5, Vars: 4, Locks: 4, Events: 400, ForkJoin: true, Volatiles: 2,
		})
	}
	p, ok := workload.ProgramByName("avrora")
	if !ok {
		t.Fatal("avrora workload missing")
	}
	out["avrora"] = p.Generate(400000, 1)
	return out
}

// TestEngineMatchesBatchAcrossTable1 is the streaming-equivalence
// conformance check: every registered Table 1 cell, fed one event at a time
// through an engine, must report exactly the same dynamic and static race
// counts as the standalone cell handed the whole trace in one run, on every
// conformance workload. All cells share one engine, so this also exercises
// the single-pass multi-analysis fan-out and its shared substrates.
func TestEngineMatchesBatchAcrossTable1(t *testing.T) {
	names := race.Detectors()
	if len(names) == 0 {
		t.Fatal("no registered analyses")
	}
	for name, tr := range conformanceTraces(t) {
		// One engine, every Table 1 cell: pure streaming.
		eng, err := race.NewEngine(race.WithAnalysisNames(names...))
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", name, err)
		}
		for _, e := range tr.Events {
			if err := eng.FeedBatch([]race.Event{e}); err != nil {
				t.Fatalf("%s: FeedBatch: %v", name, err)
			}
		}
		rep, err := eng.Close()
		if err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		for _, a := range names {
			sub, ok := rep.ByAnalysis(a)
			if !ok {
				t.Fatalf("%s: no sub-report for %s", name, a)
			}
			// Batch path: the standalone analysis over the complete
			// trace in one run.
			entry, _ := analysis.ByName(a)
			col := analysis.Run(entry.NewFor(tr), tr)
			if got, want := sub.Dynamic(), col.Dynamic(); got != want {
				t.Errorf("%s/%s: streaming dynamic = %d, batch = %d", name, a, got, want)
			}
			if got, want := sub.Static(), col.Static(); got != want {
				t.Errorf("%s/%s: streaming static = %d, batch = %d", name, a, got, want)
			}
		}
	}
}

func figure1Trace() *race.Trace {
	b := race.NewBuilder()
	b.Read("T1", "x")
	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m")
	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
	b.Write("T2", "x")
	return b.Build()
}

func TestEngineDefaultsToSmartTrackWDC(t *testing.T) {
	eng, err := race.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Detectors(); len(got) != 1 || got[0] != "ST-WDC" {
		t.Fatalf("default detectors = %v, want [ST-WDC]", got)
	}
	if err := eng.FeedBatch(figure1Trace().Events); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dynamic() != 1 {
		t.Errorf("dynamic = %d, want 1", rep.Dynamic())
	}
}

func TestEngineRejectsNACellAndUnknownName(t *testing.T) {
	if _, err := race.NewEngine(race.WithAnalysisNames("ST-HB")); err == nil {
		t.Error("SmartTrack-HB engine must be rejected")
	}
	if _, err := race.NewEngine(race.WithAnalysisNames("nope")); err == nil {
		t.Error("unknown analysis name must be rejected")
	}
}

func TestEngineOnRaceFiresOnline(t *testing.T) {
	var seen []race.RaceInfo
	eng, err := race.NewEngine(
		race.WithOnRace(func(r race.RaceInfo) { seen = append(seen, r) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	tr := figure1Trace()
	for i, e := range tr.Events {
		if err := eng.FeedBatch([]race.Event{e}); err != nil {
			t.Fatal(err)
		}
		if i < tr.Len()-1 && len(seen) != 0 {
			t.Fatalf("race reported before the detecting access (event %d)", i)
		}
	}
	if len(seen) != 1 {
		t.Fatalf("online callbacks = %d, want 1", len(seen))
	}
	if seen[0].Analysis != "ST-WDC" || !seen[0].Write || seen[0].Index != tr.Len()-1 {
		t.Errorf("callback = %+v", seen[0])
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRejectsIllFormedStream(t *testing.T) {
	eng, err := race.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch([]race.Event{{T: 0, Op: race.OpRelease, Targ: 0}}); err == nil {
		t.Fatal("release of unheld lock must be rejected")
	}
	// The engine is poisoned: further feeding and closing return the error.
	if err := eng.FeedBatch([]race.Event{{T: 0, Op: race.OpRead, Targ: 0}}); err == nil {
		t.Error("poisoned engine must keep rejecting")
	}
	if err := eng.FeedBatch(nil); err == nil {
		t.Error("poisoned engine must reject an empty run too")
	}
	if _, err := eng.Close(); err == nil {
		t.Error("Close after a stream error must fail")
	}
}

func TestEngineFeedAfterClose(t *testing.T) {
	eng, err := race.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch([]race.Event{{T: 0, Op: race.OpRead}}); err == nil {
		t.Error("FeedBatch after Close must fail")
	}
	if err := eng.FeedBatch(nil); err == nil {
		t.Error("an empty FeedBatch after Close must fail")
	}
	if _, err := eng.Close(); err == nil {
		t.Error("double Close must fail")
	}
}

func TestEngineVindication(t *testing.T) {
	eng, err := race.NewEngine(
		race.WithVindication(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch(figure1Trace().Events); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	races := rep.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v", races)
	}
	res, ok := rep.Vindication(races[0].Index)
	if !ok {
		t.Fatal("no vindication verdict recorded")
	}
	if !res.Vindicated {
		t.Errorf("figure 1's race must vindicate: %s", res.Reason)
	}
}

// TestEngineStreamsFromDecoder pipes a serialized trace through the
// streaming decoder into the engine in 64-event runs — the cmd/racedetect
// path — and checks it against direct analysis.
func TestEngineStreamsFromDecoder(t *testing.T) {
	tr := workload.Random(workload.RandomConfig{Seed: 9, Threads: 4, Vars: 5, Locks: 3, Events: 500, ForkJoin: true})
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	eng, err := race.NewEngine(race.WithAnalysisNames("ST-DC", "FTO-HB"))
	if err != nil {
		t.Fatal(err)
	}
	dec := race.NewTraceDecoder(&buf)
	var run []race.Event
	for {
		ev, err := dec.Next()
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if err == nil {
			run = append(run, ev)
		}
		if len(run) == 64 || err == io.EOF {
			if ferr := eng.FeedBatch(run); ferr != nil {
				t.Fatal(ferr)
			}
			run = run[:0]
		}
		if err == io.EOF {
			break
		}
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Fed() != tr.Len() {
		t.Errorf("fed %d events, trace has %d", eng.Fed(), tr.Len())
	}
	want, err := race.Analyze(tr, race.DC, race.SmartTrack)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := rep.ByAnalysis("ST-DC")
	if sub.Dynamic() != want.Dynamic() || sub.Static() != want.Static() {
		t.Errorf("decoder-fed engine %d/%d, direct %d/%d",
			sub.Dynamic(), sub.Static(), want.Dynamic(), want.Static())
	}
}

// TestEncoderDecoderStreamRoundTrip round-trips a trace through the
// streaming encoder (unknown length up front) and decoder.
func TestEncoderDecoderStreamRoundTrip(t *testing.T) {
	tr := figure1Trace()
	var buf bytes.Buffer
	enc := race.NewTraceEncoder(&buf)
	for _, e := range tr.Events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec := race.NewTraceDecoder(&buf)
	var got []race.Event
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != tr.Len() {
		t.Fatalf("round trip lost events: %d of %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, got[i], tr.Events[i])
		}
	}
}

// TestRuntimeEngineOnePass records Figure 1's execution shape through a
// Runtime with an attached engine: analysis happens while recording
// (record-and-analyze in one pass), and Finish returns the fan-out report.
func TestRuntimeEngineOnePass(t *testing.T) {
	eng, err := race.NewEngine(race.WithAnalysisNames("FTO-HB", "ST-WDC"))
	if err != nil {
		t.Fatal(err)
	}
	rt := race.NewRuntime(race.WithEngineAttached(eng))
	t1 := rt.Main()
	t2 := rt.Go(t1)
	rt.Read(t1, "x")
	rt.Locked(t1, "m", func() { rt.Write(t1, "y") })
	rt.Locked(t2, "m", func() { rt.Read(t2, "z") })
	rt.Write(t2, "x")
	rt.Join(t1, t2)
	rep, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := rep.ByAnalysis("FTO-HB")
	st, _ := rep.ByAnalysis("ST-WDC")
	if hb.Dynamic() != 0 {
		t.Errorf("FTO-HB dynamic = %d, want 0", hb.Dynamic())
	}
	if st.Dynamic() != 1 {
		t.Errorf("ST-WDC dynamic = %d, want 1", st.Dynamic())
	}
}

func TestRuntimeFinishRequiresEngine(t *testing.T) {
	rt := race.NewRuntime()
	if _, err := rt.Finish(); err == nil {
		t.Error("Finish without an attached engine must fail")
	}
}

// TestRuntimeFinishClosesOpenSections: with an engine attached, open
// critical sections at Finish close with LIFO releases fed through the
// engine, so the stream stays well formed.
func TestRuntimeFinishClosesOpenSections(t *testing.T) {
	eng, err := race.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	rt := race.NewRuntime(race.WithEngineAttached(eng))
	t1 := rt.Main()
	rt.Acquire(t1, "outer")
	rt.Acquire(t1, "inner")
	rt.Write(t1, "x")
	if _, err := rt.Finish(); err != nil {
		t.Fatalf("Finish with open critical sections: %v", err)
	}
}

// TestRuntimeSnapshotLIFOClose pins the deterministic closing order of
// open critical sections: threads in ascending id order, each thread's
// sections in reverse acquisition order (innermost first).
func TestRuntimeSnapshotLIFOClose(t *testing.T) {
	rt := race.NewRuntime()
	t1 := rt.Main()
	t2 := rt.Go(t1)
	rt.Acquire(t1, "a") // lock id 0
	rt.Acquire(t1, "b") // lock id 1
	rt.Acquire(t1, "c") // lock id 2
	rt.Acquire(t2, "d") // lock id 3
	tr, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	tail := tr.Events[n-4:]
	wantTargs := []uint32{2, 1, 0, 3} // T1's LIFO (c, b, a), then T2's (d)
	wantTids := []race.Tid{t1, t1, t1, t2}
	for i, e := range tail {
		if e.Op != race.OpRelease || e.Targ != wantTargs[i] || e.T != wantTids[i] {
			t.Fatalf("closing release %d = %v, want T%d rel(m%d)", i, e, wantTids[i], wantTargs[i])
		}
	}
	// The closing order is deterministic: a second runtime with the same
	// acquisitions snapshots to the identical tail.
	rt2 := race.NewRuntime()
	u1 := rt2.Main()
	u2 := rt2.Go(u1)
	rt2.Acquire(u1, "a")
	rt2.Acquire(u1, "b")
	rt2.Acquire(u1, "c")
	rt2.Acquire(u2, "d")
	tr2, err := rt2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if tr.Events[i] != tr2.Events[i] {
			t.Fatalf("snapshot closing not deterministic at event %d", i)
		}
	}
}
