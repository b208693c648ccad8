package store

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Reader streams a racelog's records as decoded events. It is
// trace.Decoder-compatible — Header declares the log's id spaces and event
// count, Next returns events until io.EOF — so everything that consumes a
// trace stream (race.Engine.FeedSource, Analyze, vindication replay,
// conformance) reads a racelog unchanged.
//
// A Reader reads a snapshot: the records present when it was created.
// Concurrent appends to the same log are not observed.
type Reader struct {
	fsys  fault.FS
	segs  []segMeta
	sum   Summary
	start uint64 // the offset the reader was opened at
	from  uint64 // cursor: offset of the next unread event

	cur  int
	f    fault.File
	br   *bufio.Reader
	left uint64 // records remaining in the current segment
	err  error

	// buf holds the batch Next serves from (allocated on the first Next);
	// pos is its cursor.
	buf []trace.Event
	pos int
}

// OpenRead opens a racelog directory read-only and returns a reader over
// its recovered contents. Unlike Open, nothing on disk is mutated: torn
// tails and dropped segments are recovered in memory only, so a racelog
// can be analyzed while its writer still owns it (or post-mortem, without
// disturbing the evidence).
func OpenRead(dir string) (*Reader, error) { return OpenReadAt(dir, 0) }

// OpenReadAt is OpenRead positioned at event offset off: the fixed-width
// records make the seek arithmetic, so skipping an already-consumed
// prefix (a resumed client re-reading its own journal) costs no decoding.
func OpenReadAt(dir string, off uint64) (*Reader, error) {
	fsys := fault.OS{}
	metas, _, err := recoverDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(metas) == 0 {
		return nil, fmt.Errorf("store: %s contains no racelog segments", dir)
	}
	var s Summary
	for _, m := range metas {
		s.merge(m.sum)
	}
	return newReader(fsys, metas, s, off)
}

// newReader positions a reader over metas starting at event offset from.
func newReader(fsys fault.FS, metas []segMeta, sum Summary, from uint64) (*Reader, error) {
	total := uint64(0)
	if n := len(metas); n > 0 {
		total = metas[n-1].last()
	}
	if from > total {
		from = total
	}
	r := &Reader{fsys: fsys, segs: metas, sum: sum, start: from, from: from}
	// Locate the starting segment: the last one whose first offset is
	// ≤ from. Within a segment the offset → position map is arithmetic
	// over the fixed-width records (cross-checked against the sparse
	// index at recovery).
	r.cur = len(metas)
	for i, m := range metas {
		if from < m.last() || (from == m.last() && m.count == 0) {
			r.cur = i
			break
		}
	}
	return r, nil
}

// Header returns the log's id-space declaration and event count, derived
// from the per-segment summaries — ready-made capacity hints for replay.
// The count reflects the reader's remaining stream (total minus the
// starting offset).
func (r *Reader) Header() (trace.Header, error) {
	h := r.sum.Header()
	h.Events -= r.start
	return h, nil
}

// ReadTrace reads a fresh reader's whole stream into one trace declared over
// the id spaces Header reports: the stream in memory, for a consumer that
// needs random access to it (vindication).
func (r *Reader) ReadTrace() (*trace.Trace, error) {
	h, _ := r.Header() // a racelog header is derived in memory and cannot fail
	tr := &trace.Trace{Threads: h.Threads, Vars: h.Vars, Locks: h.Locks, Volatiles: h.Volatiles, Classes: h.Classes}
	tr.Events = make([]trace.Event, h.Events)
	for n := 0; n < tr.Len(); {
		k, err := r.ReadBatch(tr.Events[n:])
		if err != nil { // io.EOF included: Header counts every event the snapshot holds
			return nil, err
		}
		n += k
	}
	return tr, nil
}

// open positions the file cursor at the current segment's starting record.
func (r *Reader) open() error {
	m := r.segs[r.cur]
	f, err := r.fsys.Open(m.path)
	if err != nil {
		return err
	}
	skip := uint64(0)
	if r.from > m.first {
		skip = r.from - m.first
	}
	if _, err := f.Seek(int64(headerSize+skip*uint64(trace.RecordSize)), io.SeekStart); err != nil {
		f.Close()
		return err
	}
	r.f = f
	r.br = bufio.NewReaderSize(f, 1<<16)
	r.left = m.count - skip
	return nil
}

// Next returns the next event, or io.EOF at the end of the snapshot. It
// serves from a buffer that ReadBatch fills a window at a time.
func (r *Reader) Next() (trace.Event, error) {
	if r.pos == len(r.buf) {
		if r.buf == nil {
			r.buf = make([]trace.Event, 0, trace.RecordWindow)
		}
		n, err := r.fill(r.buf[:cap(r.buf)])
		r.buf, r.pos = r.buf[:n], 0
		if n == 0 {
			return trace.Event{}, err
		}
	}
	r.pos++
	return r.buf[r.pos-1], nil
}

// ReadBatch decodes up to len(dst) events into dst and returns how many:
// at least one, or 0 and io.EOF at the end of the snapshot (or the reader's
// sticky error). Batches end at segment boundaries.
func (r *Reader) ReadBatch(dst []trace.Event) (int, error) {
	n := copy(dst, r.buf[r.pos:]) // events Next has buffered come first
	r.pos += n
	if n == 0 {
		var err error
		if n, err = r.fill(dst); n == 0 {
			return 0, err
		}
	}
	return n, nil
}

// fill decodes the next run of the current segment into dst. Events ahead
// of a damaged record are still delivered; the error surfaces on the
// following call.
func (r *Reader) fill(dst []trace.Event) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for r.f == nil || r.left == 0 {
		if r.f != nil {
			r.f.Close()
			r.f = nil
			r.cur++
			r.from = r.segs[r.cur-1].last()
		}
		if r.cur >= len(r.segs) {
			r.err = io.EOF
			return 0, io.EOF
		}
		if err := r.open(); err != nil {
			r.err = err
			return 0, err
		}
	}
	dst = dst[:min(uint64(len(dst)), r.left)]
	n, bad, err := trace.ReadRecords(r.br, dst, nil)
	switch {
	case bad >= 0:
		n = bad
		r.err = fmt.Errorf("store: segment %d: %w", r.segs[r.cur].seg, trace.BadRecord(bad, dst[bad].Op))
	case err != nil:
		// The snapshot promised r.left more records; a short read here is
		// real corruption or concurrent truncation, not clean EOF.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("store: segment %d truncated under reader: %w", r.segs[r.cur].seg, err)
	}
	r.left -= uint64(n)
	if n == 0 {
		return 0, r.err
	}
	return n, nil
}

// Close releases the reader's file handle. Reading past io.EOF already
// closes it; Close is for abandoning a reader mid-stream.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
