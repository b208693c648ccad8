package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
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

// TestDecoderErrors pins what Decoder.Next serves at every way a binary
// trace can end — the events before the end, then io.EOF or a sticky error
// naming the event — with the texts and indices the per-record decoder
// gave. Each row runs over a whole-buffer reader and over a one-byte-per-Read
// one, so windows end where the stream's deliveries do.
func TestDecoderErrors(t *testing.T) {
	const n = 3000
	evs := codecEvents(n)
	var counted, unbounded bytes.Buffer
	if err := WriteBinary(&counted, &Trace{Events: evs}); err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(&unbounded, Header{})
	for _, e := range evs {
		enc.Encode(e)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	const hdr = 4 + 4*6 + 8
	cut := func(k int) func([]byte) []byte {
		return func(b []byte) []byte { return b[:len(b)-k] }
	}
	badOp := func(i int) func([]byte) []byte {
		return func(b []byte) []byte {
			b[hdr+i*RecordSize+2] = 0xEE
			return b
		}
	}
	for _, tc := range []struct {
		name    string
		stream  *bytes.Buffer
		mutate  func([]byte) []byte
		served  int
		wantErr string // "" = io.EOF
	}{
		{"counted/whole", &counted, cut(0), n, ""},
		{"unbounded/whole", &unbounded, cut(0), n, ""},
		{"counted/truncated inside a record", &counted, cut(5), n - 1, "trace: truncated at event 2999 of 3000"},
		{"unbounded/truncated inside a record", &unbounded, cut(5), n - 1, "trace: truncated at event 2999 of 18446744073709551615"},
		{"counted/truncated on a record boundary", &counted, cut(1000 * RecordSize), 2000, "trace: truncated at event 2000 of 3000"},
		{"unbounded/truncated on a record boundary", &unbounded, cut(1000 * RecordSize), 2000, ""},
		{"counted/invalid op at 0", &counted, badOp(0), 0, "trace: event 0: trace: invalid op 238 in record"},
		{"counted/invalid op at 1023", &counted, badOp(1023), 1023, "trace: event 1023: trace: invalid op 238 in record"},
		{"counted/invalid op at 1024", &counted, badOp(1024), 1024, "trace: event 1024: trace: invalid op 238 in record"},
		{"unbounded/invalid op at 1024", &unbounded, badOp(1024), 1024, "trace: event 1024: trace: invalid op 238 in record"},
		{"counted/trailing bytes ignored", &counted, func(b []byte) []byte {
			return append(b, bytes.Repeat([]byte{0xEE}, 2*RecordSize+5)...)
		}, n, ""},
	} {
		for _, r := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"one-byte", iotest.OneByteReader},
		} {
			name := tc.name + "/" + r.name
			d := NewDecoder(r.wrap(bytes.NewReader(tc.mutate(bytes.Clone(tc.stream.Bytes())))))
			var err error
			served := 0
			for ; ; served++ {
				var e Event
				if e, err = d.Next(); err != nil {
					break
				}
				if served >= n || e != evs[served] {
					t.Fatalf("%s: event %d = %v, want %v", name, served, e, evs[min(served, n-1)])
				}
			}
			if served != tc.served {
				t.Errorf("%s: served %d events, want %d", name, served, tc.served)
			}
			if tc.wantErr == "" {
				if err != io.EOF {
					t.Errorf("%s: ended with %v, want io.EOF", name, err)
				}
			} else if err == nil || err == io.EOF || err.Error() != tc.wantErr {
				t.Errorf("%s: ended with %v, want %q", name, err, tc.wantErr)
			}
			if _, again := d.Next(); again != err {
				t.Errorf("%s: the next call says %v, want %v again", name, again, err)
			}
		}
	}
}
