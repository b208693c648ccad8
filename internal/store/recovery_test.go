package store

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, fileSize(t, path)-n); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// invalidRecord is a whole 12-byte record with an op byte no decoder
// accepts — the shape of garbage a misdirected write leaves behind.
func invalidRecord() []byte {
	rec := make([]byte, trace.RecordSize)
	rec[2] = 0xEE
	return rec
}

// TestTornTailRecovery is the crash-safety table: each case writes a log
// with a synced prefix, damages it the way a specific failure would, and
// checks recovery keeps exactly the durable events — the torn or corrupt
// suffix is dropped, never anything acked before it.
func TestTornTailRecovery(t *testing.T) {
	const (
		segEvents = 100
		total     = 250 // segments: 100 sealed, 100 sealed, 50 tail
	)
	evs := genEvents(total)

	cases := []struct {
		name string
		// damage mutates the log directory after a crash-style abandon
		// (tail unsealed, everything flushed via Sync).
		damage func(t *testing.T, dir string)
		// want is the expected recovered event count.
		want int
	}{
		{
			name:   "clean-crash",
			damage: func(t *testing.T, dir string) {},
			want:   250,
		},
		{
			name: "torn-partial-record",
			damage: func(t *testing.T, dir string) {
				appendBytes(t, dir+"/"+segmentName(2), []byte{7, 7, 7, 7, 7})
			},
			want: 250,
		},
		{
			name: "torn-invalid-record",
			damage: func(t *testing.T, dir string) {
				appendBytes(t, dir+"/"+segmentName(2), invalidRecord())
			},
			want: 250,
		},
		{
			name: "tail-truncated-mid-record",
			damage: func(t *testing.T, dir string) {
				truncateBy(t, dir+"/"+segmentName(2), 5)
			},
			want: 249, // the last record lost its tail bytes
		},
		{
			name: "tail-truncated-whole-records",
			damage: func(t *testing.T, dir string) {
				truncateBy(t, dir+"/"+segmentName(2), 10*trace.RecordSize)
			},
			want: 240,
		},
		{
			name: "tail-gone",
			damage: func(t *testing.T, dir string) {
				if err := os.Remove(dir + "/" + segmentName(2)); err != nil {
					t.Fatal(err)
				}
			},
			want: 200,
		},
		{
			name: "sealed-crc-corrupt-record",
			damage: func(t *testing.T, dir string) {
				// Flip the loc byte of a record inside sealed segment 1:
				// the seal fails verification, the segment is demoted to a
				// scanned tail (its records still decode), and segment 2
				// after it is dropped.
				flipByte(t, dir+"/"+segmentName(1), headerSize+50*trace.RecordSize+8)
			},
			want: 200,
		},
		{
			name: "sealed-footer-corrupt",
			damage: func(t *testing.T, dir string) {
				// Corrupt the trailer magic of sealed segment 1: no
				// plausible seal, so the scan absorbs the records and then
				// stops inside the footer; recovery must keep at least the
				// segment's real records and drop everything after.
				sz := fileSize(t, dir+"/"+segmentName(1))
				flipByte(t, dir+"/"+segmentName(1), sz-trailerSize)
			},
			want: 200,
		},
		{
			name: "segment-gap",
			damage: func(t *testing.T, dir string) {
				// Losing a middle segment cuts the log at the gap: later
				// segments are unreachable (their offsets would lie).
				if err := os.Remove(dir + "/" + segmentName(1)); err != nil {
					t.Fatal(err)
				}
			},
			want: 100,
		},
		{
			name: "stray-file-ignored",
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(dir+"/"+"seg-notanumber.rlog", []byte("junk"), 0o666); err != nil {
					t.Fatal(err)
				}
			},
			want: 250,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentEvents: segEvents})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendBatch(evs); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			// Crash: abandon without Close.
			tc.damage(t, dir)

			l2, err := Open(dir, Options{SegmentEvents: segEvents})
			if err != nil {
				t.Fatal(err)
			}
			if got := logEvents(t, l2); got != uint64(tc.want) {
				t.Fatalf("recovered %d events, want %d", got, tc.want)
			}
			r, err := l2.Reader()
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, r)
			if tc.name == "sealed-crc-corrupt-record" {
				// The flipped byte survives (records still decode); only
				// the count is asserted.
				if len(got) != tc.want {
					t.Fatalf("recovered %d events, want %d", len(got), tc.want)
				}
			} else {
				eventsEqual(t, got, evs[:tc.want])
			}

			// The recovered log must accept appends and close cleanly.
			if err := l2.AppendBatch([]trace.Event{{T: 1, Op: trace.OpWrite, Targ: 9}}); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			r2, err := OpenRead(dir)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(drain(t, r2)); n != tc.want+1 {
				t.Fatalf("after append+close: %d events, want %d", n, tc.want+1)
			}
		})
	}
}

// TestRecoveryDropsOnlyUnsynced: the durability contract behind the raced
// flush barrier — after Sync returns, a crash (simulated by truncating the
// unsynced suffix the way a dying OS would) loses only post-Sync appends.
func TestRecoveryDropsOnlyUnsynced(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(180)
	l, err := Open(dir, Options{SegmentEvents: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(evs[:120]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(evs[120:]); err != nil {
		t.Fatal(err)
	}
	// Flush so the bytes reach the file, then simulate the crash dropping
	// an arbitrary chunk of the unsynced suffix plus a torn half-record.
	if _, err := l.Reader(); err != nil { // Reader() flushes buffered writes
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(0))
	truncateBy(t, path, 40*trace.RecordSize+7)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := logEvents(t, l2)
	if got < 120 {
		t.Fatalf("recovery lost synced data: %d < 120", got)
	}
	if got > 180 {
		t.Fatalf("recovery invented data: %d", got)
	}
	r, _ := l2.Reader()
	eventsEqual(t, drain(t, r), evs[:got])
}

// FuzzSegmentDecoder hammers decodeSegment with corrupted segment images:
// it must never panic, never claim more records than the image holds, and
// every record of the recovered prefix must decode.
func FuzzSegmentDecoder(f *testing.F) {
	// Seeds: a sealed segment, a torn tail, assorted truncations.
	build := func(n int, seal bool) []byte {
		dir := f.TempDir()
		l, err := Open(dir, Options{SegmentEvents: 1 << 16, NoSync: true})
		if err != nil {
			f.Fatal(err)
		}
		if err := l.AppendBatch(genEvents(n)); err != nil {
			f.Fatal(err)
		}
		if seal {
			if err := l.Close(); err != nil {
				f.Fatal(err)
			}
		} else if _, err := l.Reader(); err != nil { // flush
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	sealed := build(200, true)
	torn := build(200, false)
	f.Add(sealed, uint32(0), uint64(0))
	f.Add(torn, uint32(0), uint64(0))
	f.Add(sealed[:len(sealed)-9], uint32(0), uint64(0))
	f.Add(sealed[:headerSize], uint32(0), uint64(0))
	f.Add([]byte{}, uint32(0), uint64(0))
	f.Add(torn, uint32(3), uint64(777))

	f.Fuzz(func(t *testing.T, data []byte, seg uint32, first uint64) {
		m, ok := decodeSegment(data, seg, first)
		if !ok {
			return
		}
		if m.seg != seg || m.first != first {
			t.Fatalf("decoded identity (%d,%d) != requested (%d,%d)", m.seg, m.first, seg, first)
		}
		maxRecs := uint64(0)
		if len(data) > headerSize {
			maxRecs = uint64(len(data)-headerSize) / trace.RecordSize
		}
		if m.count > maxRecs {
			t.Fatalf("count %d exceeds image capacity %d", m.count, maxRecs)
		}
		if m.size > int64(len(data)) {
			t.Fatalf("size %d exceeds image length %d", m.size, len(data))
		}
		var sum Summary
		for i := uint64(0); i < m.count; i++ {
			ev, err := trace.GetRecord(data[headerSize+i*trace.RecordSize:])
			if err != nil {
				t.Fatalf("recovered record %d does not decode: %v", i, err)
			}
			sum.add([]trace.Event{ev})
		}
		if sum != summaryNoIndex(m.sum) {
			t.Fatalf("summary mismatch: recomputed %+v, recovered %+v", sum, m.sum)
		}
	})
}

// summaryNoIndex returns s (summaries are directly comparable; helper
// exists for symmetry/clarity in the fuzz invariant).
func summaryNoIndex(s Summary) Summary { return s }

// TestReaderErrorOnConcurrentTruncate: a reader that loses its underlying
// records mid-stream reports an error, not silent EOF.
func TestReaderErrorOnConcurrentTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 1 << 16, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Larger than the reader's 64K buffer, so a refill crosses the
	// truncation point.
	const n = 10000
	if err := l.AppendBatch(genEvents(n)); err != nil {
		t.Fatal(err)
	}
	r, err := l.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, segmentName(0)), headerSize+2*trace.RecordSize); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < n; i++ {
		if _, lastErr = r.Next(); lastErr != nil {
			break
		}
	}
	if lastErr == nil || lastErr == io.EOF {
		t.Fatalf("reader on truncated segment: %v, want hard error", lastErr)
	}
}
