package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Log is an append-only racelog open for writing. All methods are safe for
// use by one writer goroutine plus any number of concurrent Reader
// consumers (readers open the segment files independently).
type Log struct {
	dir  string
	opts Options
	fsys fault.FS

	mu     sync.Mutex
	sealed []segMeta
	active segMeta
	f      fault.File
	bw     *bufio.Writer
	crc    uint32 // running CRC-32 (IEEE) of the active segment's record bytes

	appended uint64 // total records, buffered included (the next offset)
	synced   uint64 // records durable as of the last Sync or seal
	closed   bool
}

// Open opens (or creates) the racelog directory dir for appending,
// recovering it first: sealed segments are CRC-verified, the tail is
// truncated at the first torn or invalid record, and any segments past a
// damaged one are dropped. Appending resumes at the recovered offset.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentEvents <= 0 {
		opts.SegmentEvents = DefaultSegmentEvents
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = fault.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	t0 := time.Now()
	metas, dropped, err := recoverDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	for _, p := range dropped {
		if err := fsys.Remove(p); err != nil {
			return nil, fmt.Errorf("store: dropping unrecoverable segment: %w", err)
		}
	}
	l := &Log{dir: dir, opts: opts, fsys: fsys}

	// The recovered tail continues as the active segment when it is
	// unsealed; a sealed (or absent) tail starts a fresh segment.
	if n := len(metas); n > 0 && !metas[n-1].sealed {
		tail := metas[n-1]
		l.sealed = metas[:n-1]
		if err := fsys.Truncate(tail.path, tail.size); err != nil {
			return nil, err
		}
		f, err := fsys.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return nil, err
		}
		// Make the recovered prefix (and its truncation) actually durable
		// before Synced() claims it is: the previous process may have died
		// without fsyncing these records, and callers acknowledge offsets
		// based on Synced — an ack over page-cache-only data would let a
		// client discard events a power loss could still eat.
		if !opts.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
		// The running record CRC died with the previous process; resume it
		// from the prefix CRC recovery already computed (crc32.Update
		// continues a digest), so this segment can still seal.
		l.crc = tail.crcRec
		l.active = tail
		l.f = f
		l.bw = bufio.NewWriterSize(f, 1<<16)
	} else {
		l.sealed = metas
		var seg uint32
		var first uint64
		if n := len(metas); n > 0 {
			seg = metas[n-1].seg + 1
			first = metas[n-1].last()
		}
		if err := l.startSegment(seg, first); err != nil {
			return nil, err
		}
	}
	if len(dropped) > 0 {
		// The removals above are part of recovery's durable outcome too.
		if err := l.syncDir(); err != nil {
			return nil, err
		}
	}
	l.appended = l.active.last()
	l.synced = l.appended
	opts.Metrics.recovery(time.Since(t0))
	return l, nil
}

// recoverDir scans dir's segment files in order, returning the longest
// valid prefix of segments plus the paths of files recovery must drop
// (mis-numbered, unreadable as a continuation, or following a torn tail).
func recoverDir(fsys fault.FS, dir string) (metas []segMeta, dropped []string, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".rlog") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var nextOff uint64
	valid := true
	for i, name := range names {
		path := filepath.Join(dir, name)
		if !valid || name != segmentName(uint32(i)) {
			valid = false
			dropped = append(dropped, path)
			continue
		}
		m, ok, err := recoverSegment(fsys, path, uint32(i), nextOff)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			valid = false
			dropped = append(dropped, path)
			continue
		}
		metas = append(metas, m)
		nextOff = m.last()
		if !m.sealed {
			// A torn tail ends the valid prefix: anything after it was
			// written concurrently with (or after) the data we just lost
			// confidence in.
			valid = false
		}
	}
	return metas, dropped, nil
}

// startSegment creates and opens a fresh active segment.
func (l *Log) startSegment(seg uint32, first uint64) error {
	path := filepath.Join(l.dir, segmentName(seg))
	f, err := l.fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	hdr := encodeSegmentHeader(seg, first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return err
	}
	l.active = segMeta{path: path, seg: seg, first: first, size: headerSize}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.crc = 0
	return nil
}

// syncDir makes directory-level mutations (segment creation, removal)
// durable.
func (l *Log) syncDir() error {
	if l.opts.NoSync {
		return nil
	}
	return l.fsys.SyncDir(l.dir)
}

// AppendBatch writes a run of records. Records are encoded, folded into the
// segment's running CRC and handed to the buffered writer a window at a time
// (trace.WriteRecords); a run that crosses the rotation threshold is split
// there, so the bytes on disk are those of one Append per record.
func (l *Log) AppendBatch(evs []trace.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(evs) > 0 {
		if l.closed {
			return errors.New("store: append to closed racelog")
		}
		a := &l.active
		// A tail recovered at or past the threshold (written under a larger
		// SegmentEvents) takes one more record and then rotates.
		room := uint64(1)
		if seg := uint64(l.opts.SegmentEvents); a.count < seg {
			room = seg - a.count
		}
		run := evs[:min(uint64(len(evs)), room)]
		if err := trace.WriteRecords(l.bw, run, &l.crc); err != nil {
			return err
		}
		a.count += uint64(len(run))
		a.size += int64(len(run)) * trace.RecordSize
		l.appended += uint64(len(run))
		evs = evs[len(run):]
		if a.count >= uint64(l.opts.SegmentEvents) {
			if err := l.rotate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// rotate seals the active segment and starts the next one. Sealing makes
// the whole segment durable (footer write + fsync), so rotation is also a
// sync point.
func (l *Log) rotate() error {
	t0 := time.Now()
	if err := l.seal(); err != nil {
		return err
	}
	seg, first := l.active.seg+1, l.active.last()
	l.sealed = append(l.sealed, l.active)
	if err := l.startSegment(seg, first); err != nil {
		return err
	}
	if l.synced < first {
		l.synced = first
	}
	l.opts.Metrics.rotation(time.Since(t0))
	return nil
}

// seal flushes the active segment, writes its footer, and fsyncs it.
func (l *Log) seal() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := appendFooterFile(l.f, &l.active, l.crc); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	return l.f.Close()
}

// Sync makes every record appended so far durable: buffered writes are
// flushed and the active segment is fsynced. A crash after Sync returns
// loses nothing at or before the current offset — the guarantee the raced
// flush barrier acknowledges.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: sync of closed racelog")
	}
	t0 := time.Now()
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.synced = l.appended
	l.opts.Metrics.sync(time.Since(t0))
	return nil
}

// Close seals the active segment and closes the log. A cleanly closed log
// is fully checksummed: every segment, tail included, has a verified
// footer on the next Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.seal(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, l.active)
	l.synced = l.appended
	return l.syncDir()
}

// Reader returns a streaming reader over a snapshot of the log's current
// contents, starting at offset 0. Buffered appends are flushed first so
// the snapshot includes everything appended so far.
func (l *Log) Reader() (*Reader, error) { return l.ReaderAt(0) }

// ReaderAt returns a streaming reader over the log's current contents
// starting at event offset off (clamped to the appended count).
func (l *Log) ReaderAt(off uint64) (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		if err := l.bw.Flush(); err != nil {
			return nil, err
		}
	}
	metas := make([]segMeta, 0, len(l.sealed)+1)
	metas = append(metas, l.sealed...)
	if !l.closed {
		metas = append(metas, l.active)
	}
	return newReader(l.fsys, metas, off)
}
