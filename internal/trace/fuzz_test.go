package trace

import (
	"bytes"
	"io"
	"testing"
)

// fuzzSeedTraces are small representative traces whose text encodings
// seed the corpus: every op kind, multiple threads, locations, and the
// channel-style volatile patterns race/sync records.
func fuzzSeedTraces() []*Trace {
	var out []*Trace

	b := NewBuilder()
	b.Read("T1", "x")
	b.Acq("T1", "m").WriteAt("T1", "y", 3).Rel("T1", "m")
	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
	b.WriteAt("T2", "x", 7)
	out = append(out, b.Build())

	// Fork/join, volatiles, class events.
	out = append(out, &Trace{
		Events: []Event{
			{T: 0, Op: OpFork, Targ: 1},
			{T: 0, Op: OpVolatileWrite, Targ: 0},
			{T: 1, Op: OpVolatileRead, Targ: 0},
			{T: 1, Op: OpClassInit, Targ: 0},
			{T: 0, Op: OpClassAccess, Targ: 0},
			{T: 1, Op: OpVolatileWrite, Targ: 1},
			{T: 0, Op: OpVolatileRead, Targ: 1},
			{T: 0, Op: OpJoin, Targ: 1},
		},
	})
	return out
}

// FuzzTextDecoder checks the text codec round-trip property on arbitrary
// inputs: any input the decoder accepts must re-encode (WriteText) and
// re-decode (TextDecoder) to the identical event sequence —
// decode ∘ encode ∘ decode = decode. Inputs the decoder rejects must be
// rejected with an error, never a panic, and the streaming decoder must
// agree with the batch reader event for event.
func FuzzTextDecoder(f *testing.F) {
	f.Add([]byte("# threads=1 vars=1 locks=0 volatiles=0 classes=0\n0 rd 0 1\n"))
	f.Add([]byte("# threads=2 vars=1 locks=1 volatiles=0 classes=0\n0 acq 0 0\n0 wr 0 5\n0 rel 0 0\n1 rd 0 6\n"))
	f.Add([]byte("# threads=3 vars=0 locks=0 volatiles=2 classes=0\n0 fork 1 0\n1 vwr 0 0\n2 vrd 0 0\n2 vwr 1 0\n1 vrd 1 0\n0 join 1 0\n"))
	f.Add([]byte("# threads=1 vars=0 locks=0 volatiles=0 classes=0\n"))
	f.Add([]byte("garbage\n"))
	for _, tr := range fuzzSeedTraces() {
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr1, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return // rejected input: an error (not a panic) is the contract
		}

		// The streaming decoder must agree with the batch reader.
		d := NewTextDecoder(bytes.NewReader(data))
		for i := 0; ; i++ {
			ev, err := d.Next()
			if err == io.EOF {
				if i != len(tr1.Events) {
					t.Fatalf("streaming decoded %d events, batch %d", i, len(tr1.Events))
				}
				break
			}
			if err != nil {
				t.Fatalf("batch accepted but streaming event %d failed: %v", i, err)
			}
			if i >= len(tr1.Events) || ev != tr1.Events[i] {
				t.Fatalf("streaming event %d = %v disagrees with batch", i, ev)
			}
		}

		// Round trip: encode and decode again; everything must survive.
		var buf bytes.Buffer
		if err := WriteText(&buf, tr1); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := ReadText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v\nencoded:\n%s", err, buf.Bytes())
		}
		if len(tr2.Events) != len(tr1.Events) {
			t.Fatalf("round-trip changed event count: %d -> %d", len(tr1.Events), len(tr2.Events))
		}
		for i := range tr1.Events {
			if tr1.Events[i] != tr2.Events[i] {
				t.Fatalf("round-trip changed event %d: %v -> %v", i, tr1.Events[i], tr2.Events[i])
			}
		}
	})
}
