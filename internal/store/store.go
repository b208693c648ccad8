// Package store implements racelog, a segmented, append-only, crash-safe
// on-disk trace store over the binary event record codec of package trace
// (trace.RecordSize / PutRecord / GetRecord). It is the durability layer
// under the race detection service: a raced server journals every ingested
// batch into a per-session racelog, so sessions survive process restarts
// and a vindicating session replays its own journal for witness
// construction at close instead of keeping a second copy of the stream.
//
// # On-disk format
//
// A racelog is a directory of segment files named seg-NNNNNNNN.rlog,
// numbered densely from zero. Each segment is:
//
//	header (24 bytes)
//	  magic   "RLSG"            4 bytes
//	  version u32 LE            format version (1)
//	  seg     u32 LE            segment number (matches the file name)
//	  pad     u32 LE            reserved, zero
//	  first   u64 LE            event offset of the segment's first record
//	records
//	  n × 12-byte event records (trace.PutRecord encoding, identical to
//	  the record section of a binary trace file and to the body of a
//	  raced Events wire frame)
//	footer (sealed segments only)
//	  sentinel (12 bytes)       "RL" 0xFF "FS" + zeros — a record-sized
//	                            marker whose op byte is invalid, so a
//	                            recovery scan stops exactly at the
//	                            record/footer boundary even when the
//	                            trailer is damaged
//	  sparse index              m × 16 bytes: event offset u64 LE,
//	                            file position u64 LE — one entry per
//	                            IndexInterval records
//	  summary (104 bytes)       per-op record counts (10 × u64 LE) plus
//	                            observed id-space sizes: threads, vars,
//	                            locks, volatiles, classes, pad (6 × u32 LE)
//	  trailer (32 bytes)
//	    magic    "RLFT"         4 bytes
//	    count    u64 LE         record count
//	    index    u32 LE         sparse-index entry count
//	    crcRec   u32 LE         CRC-32 (IEEE) of the record bytes
//	    crcMeta  u32 LE         CRC-32 (IEEE) of index + summary bytes
//	    footLen  u32 LE         total footer length, trailer included
//	    pad      u32 LE         reserved, zero
//
// Only the last segment of a log may be unsealed (no footer): it is the
// active tail being appended to. Sealed segments are immutable and fully
// checksummed; rotation seals the active segment (footer write + fsync)
// before the next one is created.
//
// Because records are fixed width, the event-offset → file-position map
// inside a segment is arithmetic (header + (off−first)·12); the sparse
// index entries make sealed segments self-describing and let recovery
// cross-check the arithmetic against what was actually written.
//
// # Crash safety
//
// Open recovers a log directory to its longest durable prefix:
//
//   - sealed segments are verified (header, trailer geometry, both CRCs);
//   - the first segment that fails verification — and every segment after
//     it — is scanned record by record, truncated at the first torn or
//     invalid record (the torn tail), and everything beyond it is dropped;
//   - appends resume in the recovered tail segment.
//
// Sync makes everything appended so far durable (buffered-writer flush +
// fsync), so a caller that acknowledges data only after Sync — the raced
// flush barrier — loses at most the unacknowledged suffix in a crash.
package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	segMagic     = "RLSG"
	footMagic    = "RLFT"
	version      = 1
	headerSize   = 24
	trailerSize  = 32
	summarySize  = 10*8 + 6*4
	indexEntrySz = 16

	// IndexInterval is the record spacing of a sealed segment's sparse
	// index entries.
	IndexInterval = 4096
)

// DefaultSegmentEvents is the rotation threshold when Options.SegmentEvents
// is zero: segments seal after this many records (12 MiB of record bytes).
const DefaultSegmentEvents = 1 << 20

// Options tunes a Log.
type Options struct {
	// SegmentEvents is the per-segment record count at which the log
	// rotates: the active segment is sealed and a new one started.
	// Zero means DefaultSegmentEvents.
	SegmentEvents int
	// FS is the filesystem the log runs on. Nil means the real one
	// (fault.OS). Fault-injection harnesses substitute an instrumented
	// implementation to exercise short writes, fsync failures, ENOSPC,
	// and power cuts under the real append/seal/recover code paths.
	FS fault.FS
	// NoSync disables fsync on Sync, seal, and rotation. Flushes still
	// happen, so same-process readers see everything, but crash safety is
	// reduced to whatever the OS has written back — appropriate only for a
	// log whose lifetime is the owning process's, such as one timed
	// without the disk's sync cost.
	NoSync bool
	// Metrics, when non-nil, receives the log's operational timings
	// (rotation, recovery, fsync). The hooks fire on the slow paths
	// only — per-record appends stay untimed.
	Metrics *Metrics
}

// Metrics are the racelog's observability hooks: pre-registered
// histograms the log observes into. Every field is optional; a nil
// *Metrics (or field) disables that timing.
type Metrics struct {
	// RotationSeconds times rotate (seal + fsync + next-segment start).
	RotationSeconds *obs.Histogram
	// RecoverySeconds times Open's recovery scan (CRC verification,
	// torn-tail truncation, tail resume).
	RecoverySeconds *obs.Histogram
	// SyncSeconds times Sync (flush + fsync) — on a raced journal this
	// is the fsync cost inside every flush barrier.
	SyncSeconds *obs.Histogram
}

// The observation methods are nil-safe on both the receiver and the
// individual hook, so call sites need no guards.

func (m *Metrics) rotation(d time.Duration) {
	if m != nil && m.RotationSeconds != nil {
		m.RotationSeconds.ObserveDuration(d)
	}
}

func (m *Metrics) recovery(d time.Duration) {
	if m != nil && m.RecoverySeconds != nil {
		m.RecoverySeconds.ObserveDuration(d)
	}
}

func (m *Metrics) sync(d time.Duration) {
	if m != nil && m.SyncSeconds != nil {
		m.SyncSeconds.ObserveDuration(d)
	}
}

// Summary aggregates what a range of records contains: per-op counts, and
// a trace header — the event count and the sizes of the id spaces the events
// touch (max id + 1) — which a Reader serves as capacity hints for replay.
type Summary struct {
	OpCounts [10]uint64
	trace.Header
}

// add folds a run of records into s.
func (s *Summary) add(run []trace.Event) {
	for _, ev := range run {
		if int(ev.Op) < len(s.OpCounts) {
			s.OpCounts[ev.Op]++
		}
	}
	s.Events += uint64(len(run))
	s.Widen(run)
}

// merge folds o into s.
func (s *Summary) merge(o Summary) {
	for i := range s.OpCounts {
		s.OpCounts[i] += o.OpCounts[i]
	}
	s.Events += o.Events
	s.Threads = max(s.Threads, o.Threads)
	s.Vars = max(s.Vars, o.Vars)
	s.Locks = max(s.Locks, o.Locks)
	s.Volatiles = max(s.Volatiles, o.Volatiles)
	s.Classes = max(s.Classes, o.Classes)
}

// appendSummary serializes s (without the Events count, which the trailer
// carries) into the footer encoding.
func appendSummary(dst []byte, s Summary) []byte {
	var b [summarySize]byte
	for i, c := range s.OpCounts {
		binary.LittleEndian.PutUint64(b[i*8:], c)
	}
	off := 10 * 8
	for i, v := range []int{s.Threads, s.Vars, s.Locks, s.Volatiles, s.Classes, 0} {
		binary.LittleEndian.PutUint32(b[off+i*4:], uint32(v))
	}
	return append(dst, b[:]...)
}

// parseSummary decodes the footer summary encoding.
func parseSummary(b []byte, count uint64) (Summary, error) {
	if len(b) != summarySize {
		return Summary{}, fmt.Errorf("store: summary is %d bytes, want %d", len(b), summarySize)
	}
	var s Summary
	for i := range s.OpCounts {
		s.OpCounts[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	s.Events = count
	for i, n := range [...]*int{&s.Threads, &s.Vars, &s.Locks, &s.Volatiles, &s.Classes} {
		*n = int(binary.LittleEndian.Uint32(b[10*8+i*4:]))
	}
	return s, nil
}

// IndexEntry is one sparse-index point: the record at event offset Off
// starts at byte Pos of its segment file.
type IndexEntry struct {
	Off uint64
	Pos uint64
}
