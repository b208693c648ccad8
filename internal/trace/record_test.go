package trace

import (
	"bytes"
	"testing"
)

// codecEvents is n events cycling through every op, thread ids, targets and
// locations wide enough to fill each field's bytes.
func codecEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{T: Tid(i * 257), Op: Op(i % int(numOps)), Targ: uint32(i) * 0x01010101, Loc: Loc(^uint32(i))}
	}
	return evs
}

// fieldByField runs f with the run codecs on their per-field fallback, the
// only path of a host that does not lay Event out as a record.
func fieldByField(f func()) {
	defer func(was bool) { eventIsRecord = was }(eventIsRecord)
	eventIsRecord = false
	f()
}

// FuzzRecordCodec holds the copy path of the run codecs to the per-field
// path, in both directions: on arbitrary bytes GetRecords decodes the same
// events, field for field, and names the same first bad record; on the
// events so decoded — whose in-memory padding carries the record's pad byte
// — PutRecords writes the same bytes, the input with every pad byte zeroed.
// (FuzzEventsFrame cannot see a copy-path bug: both its sides call these two
// functions.)
func FuzzRecordCodec(f *testing.F) {
	if !eventIsRecord {
		f.Skip("Event is not laid out as a record on this host; only the per-field path exists")
	}
	seed := make([]byte, 3*RecordSize)
	PutRecords(seed, codecEvents(3))
	f.Add(seed)
	padded := bytes.Clone(seed)
	for i := recordPad; i < len(padded); i += RecordSize {
		padded[i] = 0xFF
	}
	f.Add(padded)
	badOp := bytes.Clone(padded)
	badOp[RecordSize+2] = 0xEE
	f.Add(badOp)
	f.Add(append(bytes.Clone(seed), 1, 2, 3)) // a ragged tail is not a record

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / RecordSize
		data = data[:n*RecordSize]
		fast, slow := make([]Event, n), make([]Event, n)
		fastBad := GetRecords(fast, data)
		var slowBad int
		fieldByField(func() { slowBad = GetRecords(slow, data) })
		if fastBad != slowBad {
			t.Fatalf("first bad record: copy path %d, per-field path %d", fastBad, slowBad)
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("record %d: copy path %+v, per-field path %+v", i, fast[i], slow[i])
			}
		}

		canonical := bytes.Clone(data)
		for i := recordPad; i < len(canonical); i += RecordSize {
			canonical[i] = 0
		}
		fastOut, slowOut := make([]byte, len(data)), make([]byte, len(data))
		PutRecords(fastOut, fast)
		fieldByField(func() { PutRecords(slowOut, fast) })
		if !bytes.Equal(fastOut, slowOut) {
			t.Fatalf("PutRecords: copy path\n%x\nper-field path\n%x", fastOut, slowOut)
		}
		if !bytes.Equal(fastOut, canonical) {
			t.Fatalf("PutRecords(GetRecords(b)) is not b with its pad bytes zeroed:\n%x\n%x", fastOut, canonical)
		}
	})
}

// BenchmarkPutRecords and BenchmarkGetRecords time one window of records
// through the run codecs, on the copy path and on the per-field fallback.
func BenchmarkPutRecords(b *testing.B) {
	evs := codecEvents(RecordWindow)
	buf := make([]byte, len(evs)*RecordSize)
	benchmarkCodecPaths(b, len(buf), func() { PutRecords(buf, evs) })
}

func BenchmarkGetRecords(b *testing.B) {
	evs := codecEvents(RecordWindow)
	buf := make([]byte, len(evs)*RecordSize)
	PutRecords(buf, evs)
	benchmarkCodecPaths(b, len(buf), func() { GetRecords(evs, buf) })
}

func benchmarkCodecPaths(b *testing.B, bytes int, pass func()) {
	run := func(b *testing.B) {
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			pass()
		}
	}
	if eventIsRecord {
		b.Run("copy", run)
	}
	b.Run("fields", func(b *testing.B) { fieldByField(func() { run(b) }) })
}
