package vindicate_test

import (
	"testing"

	"repro/internal/oracle"
	"repro/internal/trace"
	"repro/internal/vindicate"
)

// buildPair returns a two-sibling trace whose second access to x has the
// given op: T1 writes x, T2 reads or writes x, completely unordered.
func buildPair(secondWrite bool) *trace.Trace {
	b := trace.NewBuilder()
	b.Fork("T0", "T1")
	b.Fork("T0", "T2")
	b.Write("T1", "x")
	if secondWrite {
		b.Write("T2", "x")
	} else {
		b.Read("T2", "x")
	}
	b.Join("T0", "T1")
	b.Join("T0", "T2")
	return b.Build()
}

// raceIndexOf builds tr's vindicator and returns the single detected race's
// index with it.
func raceIndexOf(t *testing.T, tr *trace.Trace) (int, *vindicate.Vindicator) {
	t.Helper()
	v, err := vindicate.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	races := v.Races()
	if len(races) != 1 {
		t.Fatalf("want exactly 1 detected race, got %v", races)
	}
	return races[0].Index, v
}

// TestWriteReadPairCannotBeVindicated pins the PR 2 vindication gap: a
// write→read race pair is never vindicated — the racing read's last-writer
// edge makes the cone construction classify the pair as graph-ordered —
// and the miss is now reported as such (WriteReadGap + ReasonWriteReadGap)
// instead of the generic "no conflicting prior access" answer. The oracle
// cross-check proves the pair genuinely races, i.e. this is a search gap,
// not soundness.
func TestWriteReadPairCannotBeVindicated(t *testing.T) {
	tr := buildPair(false)
	idx, v := raceIndexOf(t, tr)
	if !tr.Events[idx].Op.IsAccess() || tr.Events[idx].Op != trace.OpRead {
		t.Fatalf("detecting access should be the read, got %v", tr.Events[idx])
	}

	res := v.Race(idx, vindicate.Options{})
	if res.Vindicated {
		t.Fatalf("write→read pair unexpectedly vindicated — the documented gap has been fixed; update race.Vindicate, ErrWriteReadRace, and the README")
	}
	if !res.WriteReadGap {
		t.Errorf("WriteReadGap not flagged; reason = %q", res.Reason)
	}
	if res.Reason != vindicate.ReasonWriteReadGap {
		t.Errorf("Reason = %q, want ReasonWriteReadGap", res.Reason)
	}

	// The pair is a true predictable race: the write and the read are
	// co-enabled in the original execution per the exhaustive oracle.
	or := oracle.RaceOnVar(tr, 0, oracle.Budget{})
	if !or.Complete {
		t.Skip("oracle budget exhausted")
	}
	if !or.Predictable {
		t.Fatalf("oracle says the pair does not race — the regression trace is wrong")
	}
}

// TestWriteWritePairStillVindicates is the positive control: the same
// shape with a write as the detecting access vindicates normally, so the
// gap flag stays scoped to write→read pairs.
func TestWriteWritePairStillVindicates(t *testing.T) {
	tr := buildPair(true)
	idx, v := raceIndexOf(t, tr)
	res := v.Race(idx, vindicate.Options{})
	if !res.Vindicated {
		t.Fatalf("write→write control pair not vindicated: %s", res.Reason)
	}
	if res.WriteReadGap {
		t.Error("WriteReadGap flagged on a vindicated write→write pair")
	}
}
