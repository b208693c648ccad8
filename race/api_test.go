package race_test

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/race"
)

// cell is one (relation, level) pair of Table 1's grid.
type cell struct {
	rel race.Relation
	lvl race.Level
}

// allCells enumerates the full (relation, level) grid of Table 1.
func allCells() []cell {
	var out []cell
	for _, rel := range []race.Relation{race.HB, race.WCP, race.DC, race.WDC} {
		for _, lvl := range []race.Level{race.UnoptG, race.Unopt, race.FT2, race.FTO, race.SmartTrack} {
			out = append(out, cell{rel, lvl})
		}
	}
	return out
}

// naCells are the five grid cells the paper's Table 1 marks N/A: HB has no
// graph-building or SmartTrack variant, and FT2 applies only to HB.
var naCells = map[cell]bool{
	{race.HB, race.UnoptG}:     true,
	{race.HB, race.SmartTrack}: true,
	{race.WCP, race.FT2}:       true,
	{race.DC, race.FT2}:        true,
	{race.WDC, race.FT2}:       true,
}

// TestDetectorsMatchTable1 pins the registry's contents against the
// paper's Table 1: fifteen analyses with their exact display names.
func TestDetectorsMatchTable1(t *testing.T) {
	want := map[string]bool{
		"Unopt-HB": true, "Unopt-WCP": true, "Unopt-DC": true, "Unopt-WDC": true,
		"Unopt-WCP w/G": true, "Unopt-DC w/G": true, "Unopt-WDC w/G": true,
		"FT2":    true,
		"FTO-HB": true, "FTO-WCP": true, "FTO-DC": true, "FTO-WDC": true,
		"ST-WCP": true, "ST-DC": true, "ST-WDC": true,
	}
	got := race.Detectors()
	if len(got) != len(want) {
		t.Fatalf("Detectors() returned %d analyses, want %d: %v", len(got), len(want), got)
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("unexpected analysis %q", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("missing analysis %q", name)
	}
}

// TestDetectorTableCaps spot-checks the registry's capability metadata.
func TestDetectorTableCaps(t *testing.T) {
	byName := make(map[string]race.DetectorInfo)
	for _, d := range race.DetectorTable() {
		byName[d.Name] = d
	}
	st := byName["ST-WDC"]
	if !st.Caps.Predictive || !st.Caps.NeedsVindication || !st.Caps.EpochOptimized || st.Caps.BuildsGraph {
		t.Errorf("ST-WDC caps = %+v", st.Caps)
	}
	hb := byName["FTO-HB"]
	if hb.Caps.Predictive || hb.Caps.NeedsVindication {
		t.Errorf("FTO-HB caps = %+v", hb.Caps)
	}
	wg := byName["Unopt-WDC w/G"]
	if !wg.Caps.BuildsGraph || wg.Caps.EpochOptimized {
		t.Errorf("Unopt-WDC w/G caps = %+v", wg.Caps)
	}
	wcp := byName["ST-WCP"]
	if wcp.Caps.NeedsVindication {
		t.Errorf("ST-WCP is sound and must not need vindication: %+v", wcp.Caps)
	}
}

// TestNewCoversFullGrid: an analysis can be built for exactly the
// registered cells, and every N/A cell has none. An analysis built for a
// cell is usable at once.
func TestNewCoversFullGrid(t *testing.T) {
	tr := figure1Trace()
	for _, c := range allCells() {
		e, ok := analysis.Lookup(c.rel, c.lvl)
		if ok == naCells[c] {
			t.Errorf("Lookup(%v, %v): ok = %v, want N/A = %v", c.rel, c.lvl, ok, naCells[c])
			continue
		}
		if !ok {
			continue
		}
		if analysis.Run(e.NewFor(tr), tr) == nil {
			t.Errorf("%s: nil race collector", e.Name)
		}
	}
}

// TestNewEngineCoversFullGrid mirrors TestNewCoversFullGrid on the engine
// constructor: it accepts the name of every registered cell and refuses
// the name an N/A cell would have.
func TestNewEngineCoversFullGrid(t *testing.T) {
	names := make(map[cell]string)
	for _, d := range race.DetectorTable() {
		names[cell{d.Relation, d.Level}] = d.Name
	}
	for _, c := range allCells() {
		name := names[c]
		if naCells[c] {
			name = c.lvl.String() + "-" + c.rel.String()
		}
		_, err := race.NewEngine(race.WithAnalysisNames(name))
		if naCells[c] != (err != nil) {
			t.Errorf("NewEngine(%q): err = %v, want N/A = %v", name, err, naCells[c])
		}
	}
}

// TestAnalyzeCoversFullGrid: Analyze returns an error (never panics) on
// every N/A cell, and on every registered cell runs the analysis
// DetectorTable lists there.
func TestAnalyzeCoversFullGrid(t *testing.T) {
	names := make(map[cell]string)
	for _, d := range race.DetectorTable() {
		names[cell{d.Relation, d.Level}] = d.Name
	}
	tr := figure1Trace()
	for _, c := range allCells() {
		rep, err := race.Analyze(tr, c.rel, c.lvl)
		if naCells[c] {
			if err == nil {
				t.Errorf("Analyze(%v, %v) must fail (N/A in Table 1)", c.rel, c.lvl)
			}
			continue
		}
		if err != nil {
			t.Errorf("Analyze(%v, %v): %v", c.rel, c.lvl, err)
			continue
		}
		if rep.Analysis() != names[c] {
			t.Errorf("Analyze(%v, %v) ran %q, want %q", c.rel, c.lvl, rep.Analysis(), names[c])
		}
	}
}

// TestEveryCellRefusesIllFormedInput feeds every registered cell a release
// of a lock nobody holds, then a read: the stream that panicked every rule
// (b) cell when a detector could be had without the checker in front. Each
// refuses it with the checker's error, through the engine and through
// Analyze.
func TestEveryCellRefusesIllFormedInput(t *testing.T) {
	evs := []race.Event{{T: 0, Op: race.OpRelease, Targ: 3}, {T: 1, Op: race.OpRead, Targ: 1}}
	for _, d := range race.DetectorTable() {
		t.Run(d.Name, func(t *testing.T) {
			eng, err := race.NewEngine(race.WithAnalysisNames(d.Name))
			if err != nil {
				t.Fatal(err)
			}
			var ce *trace.CheckError
			if err := eng.FeedBatch(evs); !errors.As(err, &ce) {
				t.Errorf("engine: err = %v, want a *trace.CheckError", err)
			}
			tr := &race.Trace{Events: evs}
			if _, err := race.Analyze(tr, d.Relation, d.Level); !errors.As(err, &ce) {
				t.Errorf("Analyze: err = %v, want a *trace.CheckError", err)
			}
		})
	}
}

// TestNilTraceIsAnError: every entry point that takes a trace answers a
// nil one with an error; none panics.
func TestNilTraceIsAnError(t *testing.T) {
	rep, err := race.AnalyzeByName(figure1Trace(), "ST-WDC")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		call   func() error
		refuse bool
	}{
		{"Analyze", func() error { _, err := race.Analyze(nil, race.WDC, race.SmartTrack); return err }, true},
		{"AnalyzeByName", func() error { _, err := race.AnalyzeByName(nil, "ST-WDC"); return err }, true},
		{"CheckTrace", func() error { return race.CheckTrace(nil) }, true},
		{"WriteTrace", func() error { return race.WriteTrace(io.Discard, nil) }, true},
		{"WriteTraceText", func() error { return race.WriteTraceText(io.Discard, nil) }, true},
		{"Vindicate", func() error { _, err := race.Vindicate(nil, 0); return err }, true},
		{"VerifyWitness", func() error { return race.VerifyWitness(nil, nil, 0, 1) }, true},
		{"Report.Vindicate", func() error { return rep.Vindicate(nil) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := tc.call(); (err != nil) != tc.refuse {
				t.Errorf("err = %v, want an error: %v", err, tc.refuse)
			}
		})
	}
}

func TestAnalyzeByNameUnknown(t *testing.T) {
	if _, err := race.AnalyzeByName(figure1Trace(), "no-such-analysis"); err == nil {
		t.Error("unknown name must return an error")
	}
	rep, err := race.AnalyzeByName(figure1Trace(), "ST-WDC")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analysis() != "ST-WDC" || rep.Dynamic() != 1 {
		t.Errorf("ST-WDC report = %s %d", rep.Analysis(), rep.Dynamic())
	}
}

// TestTraceRoundTripThroughStreamingDecoder writes with the batch writer
// and re-reads the same bytes both in batch and through the streaming
// decoder, checking the events agree.
func TestTraceRoundTripThroughStreamingDecoder(t *testing.T) {
	tr := figure1Trace()
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	batch, err := race.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(batch.Events, tr.Events) {
		t.Errorf("batch round trip mismatch: %v", batch.Events)
	}

	dec := race.NewTraceDecoder(bytes.NewReader(raw))
	var i int
	for ; ; i++ {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e != tr.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, e, tr.Events[i])
		}
	}
	if i != tr.Len() {
		t.Fatalf("decoder produced %d events, want %d", i, tr.Len())
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Errorf("Next after EOF must keep returning io.EOF, got %v", err)
	}
}

// TestTextTraceRoundTripStreaming mirrors the binary round trip for the
// text format.
func TestTextTraceRoundTripStreaming(t *testing.T) {
	tr := figure1Trace()
	var buf bytes.Buffer
	if err := race.WriteTraceText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	dec := race.NewTextTraceDecoder(&buf)
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
		t.Fatalf("text stream lost events: %d of %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, got[i], tr.Events[i])
		}
	}
}

// TestDecoderRejectsGarbage: corrupt inputs error cleanly, never panic.
func TestDecoderRejectsGarbage(t *testing.T) {
	if _, err := race.NewTraceDecoder(bytes.NewReader([]byte("not a trace"))).Next(); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := race.NewTextTraceDecoder(bytes.NewReader(nil)).Next(); err == nil {
		t.Error("empty text input must error")
	}
	if _, err := race.ReadTrace(bytes.NewReader([]byte("STRK"))); err == nil {
		t.Error("truncated header must error")
	}
}
