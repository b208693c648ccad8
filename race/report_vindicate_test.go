package race_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/race"
)

// TestReportVindicatesFigure1FromATraceFile is the library recipe for
// vindicating a stream kept on disk instead of in the engine: the stream is
// written with NewTraceEncoder while a non-retaining engine takes it, read
// back with ReadTrace after Close, and handed to Report.Vindicate. The
// predictable race on Figure 1's x gets a verified witness, and the report
// is byte-identical to a WithVindication engine's.
func TestReportVindicatesFigure1FromATraceFile(t *testing.T) {
	fig := workload.Figure1()
	path := filepath.Join(t.TempDir(), "figure1.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := race.NewTraceEncoder(f)
	eng, err := race.NewEngine(race.WithAnalysisNames(goldenNames...))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range fig.Trace.Events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedBatch([]race.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := race.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Vindicate(tr); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, rc := range rep.Races() {
		if rc.Var != fig.RaceVar {
			continue
		}
		found = true
		if res, ok := rep.Vindication(rc.Index); !ok || !res.Vindicated || len(res.Witness) == 0 {
			t.Fatalf("Figure 1 race not vindicated from the trace file: ok=%v res=%+v", ok, res)
		}
	}
	if !found {
		t.Fatalf("no race on Figure 1's x (var %d): %+v", fig.RaceVar, rep.Races())
	}
	got, _ := json.Marshal(rep)
	if want := vindicatingReport(t, fig.Trace); !bytes.Equal(got, want) {
		t.Errorf("report vindicated from the file differs from the retaining engine's\n--- file ---\n%s\n--- engine ---\n%s", got, want)
	}
}

// TestReportVindicateRefusesAnotherStream: Report.Vindicate answers a trace
// that is not the report's stream with an error and records no verdict —
// a nil trace, one too short to hold a race's index, and one whose event at
// a race's index is another variable, another location, or the other kind
// of access.
func TestReportVindicateRefusesAnotherStream(t *testing.T) {
	b := race.NewBuilder()
	b.Fork("T0", "T1")
	b.Write("T0", "x")
	b.Acq("T0", "m").Write("T0", "y").Rel("T0", "m")
	b.Acq("T1", "m").Read("T1", "z").Rel("T1", "m")
	b.Write("T1", "x")
	tr := b.Build()

	eng, err := race.NewEngine(race.WithAnalysisNames("ST-WDC", "FTO-HB"))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	races := rep.Races()
	if len(races) != 1 {
		t.Fatalf("want the one predictable race, got %+v", races)
	}
	idx := races[0].Index

	other := func(edit func(*race.Event)) *race.Trace {
		o := *tr
		o.Events = append([]race.Event(nil), tr.Events...)
		edit(&o.Events[idx])
		return &o
	}
	short := *tr
	short.Events = tr.Events[:idx]
	for _, tc := range []struct {
		name string
		tr   *race.Trace
		want string
	}{
		{"nil trace", nil, "nil trace"},
		{"index past the end", &short, "past the trace"},
		{"another variable", other(func(ev *race.Event) { ev.Targ = b.VarID("y") }), "not the trace's event"},
		{"another location", other(func(ev *race.Event) { ev.Loc++ }), "not the trace's event"},
		{"a read, not a write", other(func(ev *race.Event) { ev.Op = race.OpRead }), "not the trace's event"},
		{"not an access", other(func(ev *race.Event) { ev.Op = race.OpVolatileWrite; ev.Targ = 0 }), "not the trace's event"},
	} {
		err := rep.Vindicate(tc.tr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Vindicate = %v, want an error saying %q", tc.name, err, tc.want)
		}
		if _, ok := rep.Vindication(idx); ok {
			t.Errorf("%s: a verdict was recorded against another stream", tc.name)
		}
	}
	if err := rep.Vindicate(tr); err != nil {
		t.Fatalf("the report's own stream refused: %v", err)
	}
	if _, ok := rep.Vindication(idx); !ok {
		t.Error("no verdict for the race after vindicating against the report's own stream")
	}
}
