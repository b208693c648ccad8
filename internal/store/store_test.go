package store

import (
	"io"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// genEvents produces n decodable records with a deterministic mix of ops
// and ids (store-level tests need valid record encodings, not trace-level
// well-formedness).
func genEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{
			T:    trace.Tid(i % 7),
			Op:   trace.Op(i % 10),
			Targ: uint32(i % 23),
			Loc:  trace.Loc(i % 101),
		}
	}
	return evs
}

// logEvents is the log's record count, buffered appends included, as a
// reader over it reads it.
func logEvents(t *testing.T, l *Log) uint64 {
	t.Helper()
	r, err := l.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	evs, err := r.ReadTrace()
	if err != nil {
		t.Fatal(err)
	}
	return uint64(len(evs))
}

// drain reads a reader to EOF.
func drain(t *testing.T, r *Reader) []trace.Event {
	t.Helper()
	var out []trace.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		out = append(out, ev)
	}
}

func eventsEqual(t *testing.T, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(1000)
	l, err := Open(dir, Options{SegmentEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	if got := logEvents(t, l); got != 1000 {
		t.Fatalf("log holds %d events, want 1000", got)
	}
	if len(l.sealed) != 7 || l.active.count != 104 { // 7 sealed × 128 + active 104
		t.Fatalf("got %d sealed segments and %d active events, want 7 and 104", len(l.sealed), l.active.count)
	}
	for i, s := range l.sealed {
		if !s.sealed || s.count != 128 || s.first != uint64(i)*128 {
			t.Fatalf("segment %d bad: %+v", i, s)
		}
	}

	// Live reader sees everything appended so far.
	r, err := l.Reader()
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, drain(t, r), evs)

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Read-only open of the closed log: every segment sealed and verified.
	r2, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, drain(t, r2), evs)
}

func TestReaderAt(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(500)
	l, err := Open(dir, Options{SegmentEvents: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{0, 1, 63, 64, 65, 250, 499, 500, 600} {
		r, err := l.ReaderAt(off)
		if err != nil {
			t.Fatalf("ReaderAt(%d): %v", off, err)
		}
		want := evs[min(int(off), len(evs)):]
		eventsEqual(t, drain(t, r), want)
		if r, err = l.ReaderAt(off); err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadTrace()
		if err != nil {
			t.Fatalf("ReaderAt(%d).ReadTrace: %v", off, err)
		}
		eventsEqual(t, got, want)
	}
}

func TestReopenAppendAfterCrash(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(300)
	l, err := Open(dir, Options{SegmentEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(evs[:200]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.synced; got != 200 {
		t.Fatalf("Synced() = %d, want 200", got)
	}
	// Simulate a crash: the log is abandoned without Close, so the active
	// segment has no footer.
	l = nil

	l2, err := Open(dir, Options{SegmentEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got := logEvents(t, l2); got != 200 {
		t.Fatalf("recovered log holds %d events, want 200", got)
	}
	if err := l2.AppendBatch(evs[200:]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, drain(t, r), evs)
}

// TestReopenAfterCleanClose: a cleanly closed log (sealed tail) resumes in
// a fresh segment.
func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(100)
	l, err := Open(dir, Options{SegmentEvents: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(evs[:60]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentEvents: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := logEvents(t, l2); got != 60 {
		t.Fatalf("reopened log holds %d events, want 60", got)
	}
	if err := l2.AppendBatch(evs[60:]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, drain(t, r), evs)
	if got := r.total; got != 100 {
		t.Fatalf("reader counts %d events, want 100", got)
	}
}

// TestOpenReadIsNonDestructive: OpenRead of a torn log recovers in memory
// without truncating anything on disk.
func TestOpenReadIsNonDestructive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(genEvents(50)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail by hand: 5 stray bytes beyond the last whole record.
	path := filepath.Join(dir, segmentName(0))
	appendBytes(t, path, []byte{1, 2, 3, 4, 5})
	before := fileSize(t, path)

	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, r)); got != 50 {
		t.Fatalf("recovered %d events, want 50", got)
	}
	if after := fileSize(t, path); after != before {
		t.Fatalf("OpenRead mutated the segment: %d -> %d bytes", before, after)
	}
}
