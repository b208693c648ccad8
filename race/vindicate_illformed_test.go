package race_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/race"
)

// illFormedTraces are traces that break a well-formedness rule. The first
// once panicked inside race.Vindicate and race.VerifyWitness alike (index
// out of range: the index pairs every release with an open acquire), under
// a package comment promising that nothing panics on user input; the
// lifecycle row got a verdict about a trace that is not an execution.
// Traces whose ids merely leave gaps are well formed: TestOneVerdictPerEventList.
var illFormedTraces = []struct {
	name string
	tr   *race.Trace
	rule string // a fragment of the violated rule's message
}{
	{
		name: "release with no open acquire",
		tr: &race.Trace{Events: []race.Event{
			{T: 0, Op: race.OpWrite, Targ: 0},
			{T: 0, Op: race.OpRelease, Targ: 0},
			{T: 1, Op: race.OpWrite, Targ: 0},
		}},
		rule: "release of lock not held",
	},
	{
		name: "thread runs after being joined",
		tr: &race.Trace{Events: []race.Event{
			{T: 1, Op: race.OpWrite, Targ: 0},
			{T: 0, Op: race.OpJoin, Targ: 1},
			{T: 1, Op: race.OpWrite, Targ: 0},
			{T: 0, Op: race.OpWrite, Targ: 0},
		}},
		rule: "thread ran after being joined",
	},
}

// TestVindicateAndVerifyWitnessRejectIllFormedTraces: both entry points
// answer an ill-formed trace with an error wrapping the violated rule.
func TestVindicateAndVerifyWitnessRejectIllFormedTraces(t *testing.T) {
	for _, row := range illFormedTraces {
		t.Run(row.name, func(t *testing.T) {
			last := row.tr.Len() - 1
			check := func(what string, err error) {
				t.Helper()
				var cerr *trace.CheckError
				if err == nil || !errors.As(err, &cerr) || !strings.Contains(err.Error(), row.rule) {
					t.Errorf("%s: error %v, want one wrapping the %q violation", what, err, row.rule)
				}
			}
			res, err := race.Vindicate(row.tr, last)
			check("Vindicate", err)
			if res.Vindicated {
				t.Error("Vindicate vindicated a race of an ill-formed trace")
			}
			witness := []race.Event{row.tr.Events[0], row.tr.Events[last]}
			check("VerifyWitness", race.VerifyWitness(row.tr, witness, 0, last))
		})
	}
}

// TestVerifyWitnessRejectsStrayInput: a witness naming a thread the trace
// never runs, a pair outside the trace and a nil trace are failed checks,
// not panics.
func TestVerifyWitnessRejectsStrayInput(t *testing.T) {
	b := race.NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	tr := b.Build()
	good := []race.Event{tr.Events[0], tr.Events[1]}
	if err := race.VerifyWitness(tr, good, 0, 1); err != nil {
		t.Fatalf("control witness rejected: %v", err)
	}
	stray := []race.Event{{T: 40, Op: race.OpWrite, Targ: 0}, tr.Events[1]}
	if race.VerifyWitness(tr, stray, 0, 1) == nil {
		t.Error("witness event of a thread the trace never runs accepted")
	}
	if race.VerifyWitness(tr, good, 0, 2) == nil || race.VerifyWitness(tr, good, -1, 1) == nil {
		t.Error("racing pair outside the trace accepted")
	}
	if race.VerifyWitness(nil, good, 0, 1) == nil {
		t.Error("nil trace accepted")
	}
}

// TestUncheckedVindicatingEngineRejectsIllFormedStream: an engine told not to
// check its input still cannot be made to panic at Close — the vindicator
// checks the retained stream it is about to index.
func TestUncheckedVindicatingEngineRejectsIllFormedStream(t *testing.T) {
	eng, err := race.NewEngine(race.WithAnalysisNames("FTO-HB"), race.WithVindication(), race.WithUncheckedInput())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range illFormedTraces[0].tr.Events {
		if err := eng.FeedBatch([]race.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := eng.Close()
	var cerr *trace.CheckError
	if rep != nil || !errors.As(err, &cerr) {
		t.Fatalf("Close = %v, %v; want an error wrapping the well-formedness violation", rep, err)
	}
}

// TestVerifyWitnessRejectsChildBeforeFork: a witness is held to the thread
// lifecycle the trace is — here the child writes y before its fork. Each
// thread's events keep their order and no lock or read is involved, so
// only the lifecycle rule can reject it.
func TestVerifyWitnessRejectsChildBeforeFork(t *testing.T) {
	tr := &race.Trace{Events: []race.Event{
		{T: 0, Op: race.OpFork, Targ: 1},
		{T: 1, Op: race.OpWrite, Targ: 1},
		{T: 1, Op: race.OpWrite, Targ: 0},
		{T: 0, Op: race.OpWrite, Targ: 0},
	}}
	ev := tr.Events
	if err := race.VerifyWitness(tr, []race.Event{ev[0], ev[1], ev[2], ev[3]}, 2, 3); err != nil {
		t.Fatalf("control witness rejected: %v", err)
	}
	err := race.VerifyWitness(tr, []race.Event{ev[1], ev[0], ev[2], ev[3]}, 2, 3)
	want := trace.CheckError{Index: 1, Event: ev[0], Msg: "fork of thread T1 that already ran"}
	var cerr *trace.CheckError
	if !errors.As(err, &cerr) || *cerr != want {
		t.Errorf("VerifyWitness = %v, want an error wrapping %v", err, &want)
	}
}
