package trace

import (
	"bytes"
	"strings"
	"testing"
)

func figure1() *Trace {
	// Figure 1(a) of the paper.
	return NewBuilder().
		Read("T1", "x").
		Acq("T1", "m").Write("T1", "y").Rel("T1", "m").
		Acq("T2", "m").Read("T2", "z").Rel("T2", "m").
		Write("T2", "x").
		Build()
}

func TestBuilderInterning(t *testing.T) {
	tr := figure1()
	if tr.Threads != 2 || tr.Vars != 3 || tr.Locks != 1 {
		t.Fatalf("got threads=%d vars=%d locks=%d", tr.Threads, tr.Vars, tr.Locks)
	}
	if tr.Len() != 8 {
		t.Fatalf("len=%d", tr.Len())
	}
	if tr.Events[0].Op != OpRead || tr.Events[0].T != 0 {
		t.Errorf("first event = %v", tr.Events[0])
	}
	if tr.Events[7].Op != OpWrite || tr.Events[7].T != 1 {
		t.Errorf("last event = %v", tr.Events[7])
	}
	// Same variable name must intern to same id.
	if tr.Events[0].Targ != tr.Events[7].Targ {
		t.Error("x must intern to one id")
	}
}

func TestBuilderAutoLocsDistinct(t *testing.T) {
	tr := figure1()
	if tr.Events[0].Loc == tr.Events[7].Loc {
		t.Error("distinct access sites must get distinct locations")
	}
}

func TestBuilderExplicitLoc(t *testing.T) {
	tr := NewBuilder().WriteAt("T1", "x", 77).ReadAt("T2", "x", 77).Build()
	if tr.Events[0].Loc != 77 || tr.Events[1].Loc != 77 {
		t.Error("explicit locations not preserved")
	}
}

func TestBuilderSyncExpansion(t *testing.T) {
	tr := NewBuilder().Sync("T1", "o").Build()
	want := []Op{OpAcquire, OpRead, OpWrite, OpRelease}
	if len(tr.Events) != 4 {
		t.Fatalf("sync expanded to %d events", len(tr.Events))
	}
	for i, e := range tr.Events {
		if e.Op != want[i] {
			t.Errorf("event %d op=%v want %v", i, e.Op, want[i])
		}
	}
}

func TestBuilderWait(t *testing.T) {
	tr := NewBuilder().Acq("T1", "m").Wait("T1", "m").Rel("T1", "m").Build()
	want := []Op{OpAcquire, OpRelease, OpAcquire, OpRelease}
	for i, e := range tr.Events {
		if e.Op != want[i] {
			t.Errorf("event %d op=%v want %v", i, e.Op, want[i])
		}
	}
	if err := Check(tr); err != nil {
		t.Errorf("wait trace must be well formed: %v", err)
	}
}

func TestBuilderVarID(t *testing.T) {
	b := NewBuilder()
	b.Read("T1", "x").Read("T1", "y")
	if b.VarID("y") != 1 {
		t.Error("VarID(y) != 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("VarID of unknown must panic")
		}
	}()
	b.VarID("zzz")
}

func TestCheckAcceptsFigure1(t *testing.T) {
	if err := Check(figure1()); err != nil {
		t.Errorf("figure 1 must be well formed: %v", err)
	}
}

func TestCheckReentrantAcquire(t *testing.T) {
	tr := NewBuilder().Acq("T1", "m").Acq("T1", "m").Build()
	err := Check(tr)
	if err == nil || !strings.Contains(err.Error(), "reentrant") {
		t.Errorf("want reentrant error, got %v", err)
	}
}

func TestCheckAcquireHeldByOther(t *testing.T) {
	tr := NewBuilder().Acq("T1", "m").Acq("T2", "m").Build()
	err := Check(tr)
	if err == nil {
		t.Fatal("double acquire across threads must fail")
	}
	// The batch and the streaming checker name the holder alike.
	const want = "lock already held by T0"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("Check: %v, want %q", err, want)
	}
	c := NewChecker()
	if err := c.Step(tr.Events[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(tr.Events[1]); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Checker: %v, want %q", err, want)
	}
}

func TestCheckReleaseUnheld(t *testing.T) {
	tr := NewBuilder().Read("T1", "x").Rel("T1", "m").Build()
	if Check(tr) == nil {
		t.Error("release of unheld lock must fail")
	}
}

func TestCheckReleaseByWrongThread(t *testing.T) {
	tr := NewBuilder().Acq("T1", "m").Rel("T2", "m").Build()
	if Check(tr) == nil {
		t.Error("release by non-holder must fail")
	}
}

func TestCheckForkJoinLifecycle(t *testing.T) {
	ok := NewBuilder().
		Write("T1", "x").
		Fork("T1", "T2").
		Write("T2", "x").
		Join("T1", "T2").
		Write("T1", "x").
		Build()
	if err := Check(ok); err != nil {
		t.Errorf("valid fork/join rejected: %v", err)
	}
}

func TestCheckRunBeforeFork(t *testing.T) {
	tr := NewBuilder().
		Write("T2", "x"). // T2 runs...
		Fork("T1", "T2"). // ...before its fork
		Build()
	err := Check(tr)
	if err == nil || !strings.Contains(err.Error(), "before being forked") {
		t.Errorf("want before-fork error, got %v", err)
	}
}

func TestCheckRunAfterJoin(t *testing.T) {
	tr := NewBuilder().
		Fork("T1", "T2").
		Join("T1", "T2").
		Write("T2", "x").
		Build()
	err := Check(tr)
	if err == nil || !strings.Contains(err.Error(), "after being joined") {
		t.Errorf("want after-join error, got %v", err)
	}
}

func TestCheckDoubleJoin(t *testing.T) {
	tr := NewBuilder().
		Fork("T1", "T2").
		Join("T1", "T2").
		Join("T1", "T2").
		Build()
	if Check(tr) == nil {
		t.Error("double join must fail")
	}
}

func TestCheckSelfFork(t *testing.T) {
	tr := &Trace{
		Events:  []Event{{T: 0, Op: OpFork, Targ: 0}},
		Threads: 1,
	}
	if Check(tr) == nil {
		t.Error("self-fork must fail")
	}
}

func TestCheckIdRanges(t *testing.T) {
	bad := []*Trace{
		{Events: []Event{{T: 5, Op: OpRead}}, Threads: 1, Vars: 1},
		{Events: []Event{{T: 0, Op: OpRead, Targ: 9}}, Threads: 1, Vars: 1},
		{Events: []Event{{T: 0, Op: OpAcquire, Targ: 3}}, Threads: 1, Locks: 1},
		{Events: []Event{{T: 0, Op: OpVolatileRead, Targ: 1}}, Threads: 1},
		{Events: []Event{{T: 0, Op: OpClassInit, Targ: 1}}, Threads: 1},
	}
	for i, tr := range bad {
		if Check(tr) == nil {
			t.Errorf("case %d: out-of-range id accepted", i)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !OpRead.IsAccess() || !OpWrite.IsAccess() {
		t.Error("read/write must be accesses")
	}
	for _, op := range []Op{OpAcquire, OpRelease, OpFork, OpJoin, OpVolatileRead, OpVolatileWrite, OpClassInit, OpClassAccess} {
		if op.IsAccess() || !op.IsSync() {
			t.Errorf("%v misclassified", op)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 2, Op: OpWrite, Targ: 17, Loc: 42}
	if got := e.String(); got != "T2:wr(x17)@loc42" {
		t.Errorf("String = %q", got)
	}
	e2 := Event{T: 0, Op: OpAcquire, Targ: 1}
	if got := e2.String(); got != "T0:acq(m1)" {
		t.Errorf("String = %q", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := figure1()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func TestTextRoundTrip(t *testing.T) {
	tr := figure1()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func assertTraceEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.Threads != want.Threads || got.Vars != want.Vars || got.Locks != want.Locks ||
		got.Volatiles != want.Volatiles || got.Classes != want.Classes {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: %v != %v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace at all........")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty accepted")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, figure1()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestTextRejectsBadHeader(t *testing.T) {
	if _, err := ReadText(strings.NewReader("bogus\n")); err == nil {
		t.Error("bad header accepted")
	}
}

func TestTextRejectsUnknownOp(t *testing.T) {
	in := "# threads=1 vars=1 locks=0 volatiles=0 classes=0\n0 frobnicate 0 0\n"
	if _, err := ReadText(strings.NewReader(in)); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestCounts(t *testing.T) {
	tr := figure1()
	c := tr.Counts()
	if c[OpRead] != 2 || c[OpWrite] != 2 || c[OpAcquire] != 2 || c[OpRelease] != 2 {
		t.Errorf("counts = %v", c)
	}
}
