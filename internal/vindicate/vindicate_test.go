package vindicate

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mustNew builds tr's vindicator; its Races are what Unopt-WDC w/G (the
// weakest relation, so it flags every candidate race) detects.
func mustNew(t *testing.T, tr *trace.Trace) *Vindicator {
	t.Helper()
	v, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVindicateFigure1(t *testing.T) {
	fig := workload.Figure1()
	v := mustNew(t, fig.Trace)
	races := v.Races()
	if len(races) == 0 {
		t.Fatal("WDC must report the figure 1 race")
	}
	res := v.Race(races[0].Index, Options{})
	if !res.Vindicated {
		t.Fatalf("figure 1 race must vindicate: %s", res.Reason)
	}
	if err := Verify(fig.Trace, res.Witness, res.E1, res.E2); err != nil {
		t.Fatalf("witness fails verification: %v", err)
	}
	// The witness must match the shape of Figure 1(b): the racing pair is
	// rd(x) by T1 and wr(x) by T2, adjacent at the end.
	last := res.Witness[len(res.Witness)-2:]
	if last[0].Op != trace.OpRead || last[1].Op != trace.OpWrite {
		t.Errorf("unexpected witness tail %v", last)
	}
}

func TestVindicateFigure2(t *testing.T) {
	fig := workload.Figure2()
	v := mustNew(t, fig.Trace)
	races := v.Races()
	if len(races) == 0 {
		t.Fatal("WDC must report the figure 2 race")
	}
	res := v.Race(races[0].Index, Options{})
	if !res.Vindicated {
		t.Fatalf("figure 2 race must vindicate: %s", res.Reason)
	}
}

func TestVindicateRejectsFigure3(t *testing.T) {
	fig := workload.Figure3()
	v := mustNew(t, fig.Trace)
	races := v.Races()
	if len(races) == 0 {
		t.Fatal("WDC must report the (false) figure 3 race")
	}
	res := v.Race(races[0].Index, Options{Restarts: 64})
	if res.Vindicated {
		t.Fatalf("figure 3's WDC race is not predictable but was vindicated; witness %v", res.Witness)
	}
}

func TestVindicateAdjacentWrites(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	tr := trace.MustCheck(b.Build())
	v := mustNew(t, tr)
	races := v.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v", races)
	}
	res := v.Race(races[0].Index, Options{})
	if !res.Vindicated {
		t.Fatalf("trivial race must vindicate: %s", res.Reason)
	}
	if len(res.Witness) != 2 {
		t.Errorf("witness should be just the two writes, got %v", res.Witness)
	}
}

func TestVindicateRespectsLastWriter(t *testing.T) {
	// T2's read of y sees T1's write; a witness for the x race must keep
	// that write before the read.
	b := trace.NewBuilder()
	b.Write("T1", "y").
		Read("T1", "x").
		Write("T2", "y"). // overwrites y: T2's later read sees THIS value
		Read("T2", "y").
		Write("T2", "x")
	tr := trace.MustCheck(b.Build())
	v := mustNew(t, tr)
	races := v.Races()
	if len(races) == 0 {
		t.Fatal("expected a race on x")
	}
	res := v.Race(races[0].Index, Options{})
	if !res.Vindicated {
		t.Fatalf("race must vindicate: %s", res.Reason)
	}
	// Check the witness preserves y's last-writer chain.
	if err := Verify(tr, res.Witness, res.E1, res.E2); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBadWitnesses(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x").
		Acq("T1", "m").Rel("T1", "m").
		Write("T2", "x")
	tr := trace.MustCheck(b.Build())
	e1, e2 := 0, 3

	// Not a PO subsequence (events swapped within T1).
	bad1 := []trace.Event{tr.Events[1], tr.Events[0], tr.Events[3]}
	if Verify(tr, bad1, e1, e2) == nil {
		t.Error("PO violation accepted")
	}
	// Ill-formed locking (release without acquire).
	bad2 := []trace.Event{tr.Events[2], tr.Events[0], tr.Events[3]}
	if Verify(tr, bad2, e1, e2) == nil {
		t.Error("lock violation accepted")
	}
	// Racing pair not last.
	bad3 := []trace.Event{tr.Events[0], tr.Events[3], tr.Events[1]}
	if Verify(tr, bad3, e1, e2) == nil {
		t.Error("non-final racing pair accepted")
	}
	// Good witness.
	good := []trace.Event{tr.Events[0], tr.Events[3]}
	if err := Verify(tr, good, e1, e2); err != nil {
		t.Errorf("good witness rejected: %v", err)
	}
}

func TestVerifyLastWriterMismatch(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "y").
		Read("T2", "y"). // sees T1's write
		Write("T2", "x").
		Write("T1", "x")
	tr := trace.MustCheck(b.Build())
	// A witness dropping T1's write but keeping T2's read has the wrong
	// last writer for the read.
	bad := []trace.Event{tr.Events[1], tr.Events[2], tr.Events[3]}
	if Verify(tr, bad, 2, 3) == nil {
		t.Error("last-writer violation accepted")
	}
}

func TestFindPrior(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("T1", "x"). // 0: conflicts (write, other thread)
				Read("T1", "x").  // 1: conflicts (read vs e2's write, other thread)
				Read("T2", "x").  // 2: same thread as e2 — excluded
				Write("T3", "x"). // 3: conflicts
				Write("T2", "x")  // 4: e2
	tr := trace.MustCheck(b.Build())
	got := FindPrior(tr, 4)
	want := []int{3, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("FindPrior = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FindPrior = %v, want %v", got, want)
		}
	}
}

// TestVindicateWorkloadRaces samples races from a DaCapo workload and
// checks that every vindicated witness passes verification, and that the
// predictive sites (true predictable races by construction) vindicate.
func TestVindicateWorkloadRaces(t *testing.T) {
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(80000, 3)
	v := mustNew(t, tr)
	races := v.Races()
	if len(races) == 0 {
		t.Fatal("pmd workload must have races")
	}
	vindicated := 0
	for i, r := range races {
		if i >= 10 {
			break
		}
		res := v.Race(r.Index, Options{Seed: int64(i)})
		if res.Vindicated {
			vindicated++
			if err := Verify(tr, res.Witness, res.E1, res.E2); err != nil {
				t.Fatalf("race %d: witness fails verification: %v", i, err)
			}
		}
	}
	if vindicated == 0 {
		t.Error("no workload race vindicated; the scheduler is too weak")
	}
}

func TestGraphBasics(t *testing.T) {
	g := graph.New(5)
	g.Edge(0, 3)
	g.Edge(1, 3)
	g.Edge(0, 3) // duplicate
	g.Edge(-1, 2)
	g.Edge(2, 2)
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if pred := g.Pred(2); len(pred) != 0 {
		t.Errorf("Pred(2) = %v; the edge from -1 must be ignored", pred)
	}
	if pred := g.Pred(3); len(pred) != 2 || pred[0] != 0 || pred[1] != 1 {
		t.Errorf("Pred(3) = %v", pred)
	}
	if g.Weight() <= 0 {
		t.Error("weight must be positive")
	}
}

// TestSharedVindicatorMatchesFreshOnes: one Vindicator answering every race
// of a trace in order gives, Result for Result, what a Vindicator built for
// that race alone gives — the scratch the searches share leaks nothing from
// one to the next, whether a search ended in a witness, a deadlock or a
// graph-ordered pair.
func TestSharedVindicatorMatchesFreshOnes(t *testing.T) {
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(4000, 11)
	shared := mustNew(t, tr)
	races := shared.Races()
	if len(races) < 10 {
		t.Fatalf("only %d races: the differential compares too little", len(races))
	}
	vindicated := 0
	for i, r := range races {
		opts := Options{Seed: int64(i % 3)}
		got, want := shared.Race(r.Index, opts), mustNew(t, tr).Race(r.Index, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("race %d (event %d): shared vindicator %+v, fresh one %+v", i, r.Index, got, want)
		}
		if got.Vindicated {
			vindicated++
		}
	}
	if slices.Contains(shared.scheduled, true) ||
		slices.ContainsFunc(shared.lockOwner, func(o int32) bool { return o != -1 }) ||
		slices.ContainsFunc(shared.lastW, func(w int32) bool { return w != -1 }) {
		t.Fatal("a search left its scratch marked")
	}
	if vindicated == 0 || vindicated == len(races) {
		t.Errorf("%d of %d races vindicated: want both outcomes compared", vindicated, len(races))
	}
}
