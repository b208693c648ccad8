package trace

import (
	"bytes"
	"io"
	"testing"
)

func TestCheckerAcceptsWellFormedStream(t *testing.T) {
	b := NewBuilder()
	b.Read("T1", "x")
	b.Fork("T1", "T2")
	b.Acq("T2", "m").Write("T2", "x").Rel("T2", "m")
	b.Join("T1", "T2")
	b.Write("T1", "x")
	tr := MustCheck(b.Build())

	c := NewChecker()
	for i, e := range tr.Events {
		if err := c.Step(e); err != nil {
			t.Fatalf("event %d (%v): %v", i, e, err)
		}
	}
	if c.n != tr.Len() {
		t.Errorf("Checked = %d, want %d", c.n, tr.Len())
	}
}

func TestCheckerViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"release unheld", []Event{{T: 0, Op: OpRelease, Targ: 0}}},
		{"release other thread's lock", []Event{
			{T: 0, Op: OpAcquire, Targ: 0}, {T: 1, Op: OpRelease, Targ: 0},
		}},
		{"reentrant acquire", []Event{
			{T: 0, Op: OpAcquire, Targ: 0}, {T: 0, Op: OpAcquire, Targ: 0},
		}},
		{"acquire held lock", []Event{
			{T: 0, Op: OpAcquire, Targ: 0}, {T: 1, Op: OpAcquire, Targ: 0},
		}},
		{"self fork", []Event{{T: 0, Op: OpFork, Targ: 0}}},
		{"double fork", []Event{
			{T: 0, Op: OpFork, Targ: 1}, {T: 0, Op: OpFork, Targ: 1},
		}},
		{"fork of running thread", []Event{
			{T: 1, Op: OpRead, Targ: 0}, {T: 0, Op: OpFork, Targ: 1},
		}},
		{"run after join", []Event{
			{T: 0, Op: OpJoin, Targ: 1}, {T: 1, Op: OpRead, Targ: 0},
		}},
		{"double join", []Event{
			{T: 0, Op: OpJoin, Targ: 1}, {T: 0, Op: OpJoin, Targ: 1},
		}},
		{"self join", []Event{{T: 0, Op: OpJoin, Targ: 0}}},
	}
	for _, tc := range cases {
		c := NewChecker()
		var err error
		for _, e := range tc.events {
			if err = c.Step(e); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestCheckerAgreesWithBatchOnCheckedTraces(t *testing.T) {
	// Any trace the batch checker accepts must stream cleanly too.
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.Acq("T1", "m").Write("T1", "x").Rel("T1", "m")
		b.Acq("T2", "m").Read("T2", "x").Rel("T2", "m")
	}
	b.Fork("T1", "T3")
	b.Write("T3", "y")
	b.Join("T1", "T3")
	tr := MustCheck(b.Build())
	c := NewChecker()
	for i, e := range tr.Events {
		if err := c.Step(e); err != nil {
			t.Fatalf("streaming checker rejected batch-checked trace at %d: %v", i, err)
		}
	}
}

func TestEncoderStreamsUnboundedCount(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Header{Threads: 2, Vars: 1})
	events := []Event{
		{T: 0, Op: OpWrite, Targ: 0, Loc: 7},
		{T: 1, Op: OpWrite, Targ: 0, Loc: 9},
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	h, err := d.Header()
	if err != nil {
		t.Fatal(err)
	}
	if h.Events != Unbounded {
		t.Errorf("streamed header count = %d, want Unbounded", h.Events)
	}
	for i, want := range events {
		got, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("event %d = %v, want %v", i, got, want)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Errorf("want io.EOF at stream end, got %v", err)
	}

	// ReadBinary accepts the streamed form and widens the id spaces.
	tr, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Threads != 2 || tr.Vars != 1 {
		t.Errorf("streamed ReadBinary: %d events, %d threads, %d vars", tr.Len(), tr.Threads, tr.Vars)
	}
}

func TestDecoderTruncatedExactCount(t *testing.T) {
	b := NewBuilder()
	b.Write("T1", "x").Write("T2", "x")
	tr := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	d := NewDecoder(bytes.NewReader(raw[:len(raw)-5]))
	var err error
	for err == nil {
		_, err = d.Next()
	}
	if err == io.EOF {
		t.Error("truncated exact-count trace must error, not EOF")
	}
}
