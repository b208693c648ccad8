package store

import (
	"bytes"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// referenceSegments builds, record by record with PutRecord and whole-buffer
// checksums, the segment files a log of evs must hold once closed — the
// format's definition, independent of how the writer windows its work.
func referenceSegments(evs []trace.Event, segEvents int) map[string][]byte {
	files := make(map[string][]byte)
	for seg, first := uint32(0), 0; ; seg++ {
		run := evs[first:min(first+segEvents, len(evs))]
		hdr := encodeSegmentHeader(seg, uint64(first))
		img := append([]byte(nil), hdr[:]...)
		var sum Summary
		var index []IndexEntry
		for i, ev := range run {
			if i%IndexInterval == 0 {
				index = append(index, IndexEntry{Off: uint64(first + i), Pos: uint64(len(img))})
			}
			var rec [trace.RecordSize]byte
			trace.PutRecord(rec[:], ev)
			img = append(img, rec[:]...)
			sum.add([]trace.Event{ev})
		}
		crcRec := crc32.ChecksumIEEE(img[headerSize:])
		files[segmentName(seg)] = append(img, buildFooter(uint64(len(run)), index, sum, crcRec)...)
		// A run that exactly fills its segment rotates into an empty tail,
		// which Close seals too.
		if first += len(run); first >= len(evs) && len(run) < segEvents {
			return files
		}
	}
}

func readSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestAppendBatchBytesMatchPerEventAppend: however a stream is cut into
// batches — rotation inside a window, sparse-index entries inside a batch —
// the segment files (records, index, summary, both CRCs) are byte for byte
// those of one Append per record, which are those of the format's
// definition.
func TestAppendBatchBytesMatchPerEventAppend(t *testing.T) {
	p, _ := workload.ProgramByName("xalan")
	evs := p.Generate(20000, 3).Events
	if len(evs) < 3*IndexInterval {
		t.Fatalf("trace of %d events is too short to cross index entries", len(evs))
	}
	// Neither a multiple of the 1024-record window nor of IndexInterval.
	for _, segEvents := range []int{5000, 4096 + 1024 + 7, len(evs) / 2} {
		want := referenceSegments(evs, segEvents)
		for _, batch := range []int{1, 7, 1000, trace.RecordWindow, IndexInterval + 1, 8192, len(evs)} {
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentEvents: segEvents})
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(evs); lo += batch {
				run := evs[lo:min(lo+batch, len(evs))]
				if err := l.AppendBatch(run); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got := readSegments(t, dir)
			if len(got) != len(want) {
				t.Fatalf("segment %d batch %d: %d files, want %d", segEvents, batch, len(got), len(want))
			}
			for name, img := range want {
				if !bytes.Equal(got[name], img) {
					t.Errorf("segment size %d, batch %d: %s differs from the record-by-record image (%d vs %d bytes)",
						segEvents, batch, name, len(got[name]), len(img))
				}
			}
		}
	}
}

// TestReadBatchMatchesNext: ReadBatch and Next are two views of one cursor —
// any interleaving of them yields the log's events once each, in order, and
// batches stop at segment boundaries rather than padding.
func TestReadBatchMatchesNext(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(10000)
	l, err := Open(dir, Options{SegmentEvents: 3001})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 100, trace.RecordWindow, 4096} {
		r, err := OpenReadAt(dir, 17)
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.Event
		buf := make([]trace.Event, size)
		for i := 0; ; i++ {
			if i%3 == 2 { // every third step takes one event the old way
				ev, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ev)
				continue
			}
			n, err := r.ReadBatch(buf)
			if err == io.EOF {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("ReadBatch = %d, %v", n, err)
			}
			got = append(got, buf[:n]...)
		}
		eventsEqual(t, got, evs[17:])
	}
}
