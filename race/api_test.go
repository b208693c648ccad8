package race_test

import (
	"bytes"
	"io"
	"testing"

	"repro/race"
)

// allCells enumerates the full (relation, level) grid of Table 1.
func allCells() []race.Cell {
	var out []race.Cell
	for _, rel := range []race.Relation{race.HB, race.WCP, race.DC, race.WDC} {
		for _, lvl := range []race.Level{race.UnoptG, race.Unopt, race.FT2, race.FTO, race.SmartTrack} {
			out = append(out, race.Cell{Relation: rel, Level: lvl})
		}
	}
	return out
}

// naCells are the five grid cells the paper's Table 1 marks N/A: HB has no
// graph-building or SmartTrack variant, and FT2 applies only to HB.
var naCells = map[race.Cell]bool{
	{Relation: race.HB, Level: race.UnoptG}:     true,
	{Relation: race.HB, Level: race.SmartTrack}: true,
	{Relation: race.WCP, Level: race.FT2}:       true,
	{Relation: race.DC, Level: race.FT2}:        true,
	{Relation: race.WDC, Level: race.FT2}:       true,
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

// TestNewCoversFullGrid: New succeeds on exactly the registered cells and
// returns an error (never panics) on every N/A cell.
func TestNewCoversFullGrid(t *testing.T) {
	tr := figure1Trace()
	for _, cell := range allCells() {
		det, err := race.New(tr, cell.Relation, cell.Level)
		if naCells[cell] {
			if err == nil {
				t.Errorf("New(%v) must fail (N/A in Table 1)", cell)
			}
			continue
		}
		if err != nil {
			t.Errorf("New(%v): %v", cell, err)
			continue
		}
		// A detector from New is usable immediately.
		det.HandleRun(tr.Events, nil)
		if det.Name() == "" {
			t.Errorf("New(%v): empty name", cell)
		}
	}
}

// TestNewEngineCoversFullGrid mirrors TestNewCoversFullGrid on the engine
// constructor.
func TestNewEngineCoversFullGrid(t *testing.T) {
	for _, cell := range allCells() {
		_, err := race.NewEngine(race.WithAnalyses(cell))
		if naCells[cell] != (err != nil) {
			t.Errorf("NewEngine(%v): err = %v, want N/A = %v", cell, err, naCells[cell])
		}
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
// decoder, checking headers and events agree.
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
	if batch.Len() != tr.Len() || batch.Threads != tr.Threads || batch.Vars != tr.Vars {
		t.Errorf("batch round trip mismatch: %d events, %d threads", batch.Len(), batch.Threads)
	}

	dec := race.NewTraceDecoder(bytes.NewReader(raw))
	hdr, err := dec.Header()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Threads != tr.Threads || hdr.Vars != tr.Vars || hdr.Locks != tr.Locks || hdr.Events != uint64(tr.Len()) {
		t.Errorf("decoder header = %+v", hdr)
	}
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
