package race

import (
	"fmt"
	"os"

	"repro/internal/store"
)

// DefaultSpillThreshold is the retained-event count at which a spill-
// enabled engine moves its stream to disk when WithSpill is given a
// non-positive threshold.
const DefaultSpillThreshold = 1 << 20

// spillChunk is the in-memory run length between racelog appends once a
// spill is active: retention cost stays bounded by the chunk while the
// racelog absorbs the stream.
const spillChunk = 8192

// WithSpill bounds the memory a vindicating engine spends retaining its
// event stream while it runs: once more than thresholdEvents events have
// been retained, the engine spills them — and everything after — to a
// racelog (package store's segmented on-disk trace log) in a fresh
// subdirectory of dir, and Close replays the stream from disk to
// vindicate the detected races. Streaming-phase retention memory is
// bounded by the threshold regardless of stream length.
//
// Vindication itself is not free of the stream's size: at Close the
// replay transiently materializes the events again (witness construction
// needs random access, and the constraint graph it consults is
// proportional to the stream anyway, exactly as without spill). What the
// spill buys is the long streaming phase — hours of ingest hold pages on
// disk instead of RAM — not an asymptotically smaller Close.
//
// The spill is scratch space owned by the engine: it is written without
// fsync, and Close and Abort remove it. A thresholdEvents ≤ 0 uses
// DefaultSpillThreshold. Without WithVindication the engine retains no
// stream, and WithSpill has no effect.
func WithSpill(dir string, thresholdEvents int) Option {
	return func(c *engineConfig) {
		c.spillDir = dir
		c.spillThreshold = thresholdEvents
	}
}

// spillState is the engine's disk-retention arm: nil until configured;
// the log is created lazily when the threshold is first crossed.
type spillState struct {
	dir       string
	threshold int
	path      string
	log       *store.Log
}

// retain buffers evs for vindication-time replay (noting the id spaces
// they span, which the rebuilt trace must declare), spilling the buffer to
// the racelog when it exceeds the active bound.
func (e *Engine) retain(evs []Event) error {
	e.spaces.Widen(evs)
	e.events = append(e.events, evs...)
	s := e.spill
	if s == nil {
		return nil
	}
	bound := s.threshold
	if s.log != nil {
		bound = min(s.threshold, spillChunk)
	}
	if len(e.events) < bound {
		return nil
	}
	return e.spillFlush()
}

// spillFlush moves the retained buffer to the racelog, creating it on
// first use.
func (e *Engine) spillFlush() error {
	s := e.spill
	if s.log == nil {
		if err := os.MkdirAll(s.dir, 0o777); err != nil {
			return fmt.Errorf("race: creating spill dir: %w", err)
		}
		path, err := os.MkdirTemp(s.dir, "racelog-spill-")
		if err != nil {
			return fmt.Errorf("race: creating spill racelog: %w", err)
		}
		log, err := store.Open(path, store.Options{NoSync: true})
		if err != nil {
			os.RemoveAll(path)
			return fmt.Errorf("race: opening spill racelog: %w", err)
		}
		s.path, s.log = path, log
	}
	if err := s.log.AppendBatch(e.events); err != nil {
		return fmt.Errorf("race: spilling retained stream: %w", err)
	}
	if cap(e.events) > 2*spillChunk {
		// The first flush arrives with a threshold-sized buffer; post-spill
		// flushes trigger at spillChunk, so release the oversized array
		// instead of pinning it for the rest of the stream.
		e.events = make([]Event, 0, spillChunk)
	} else {
		e.events = e.events[:0]
	}
	return nil
}

// spillCleanup discards the spill racelog, if any. Best-effort: the spill
// is scratch under a caller-owned directory.
func (e *Engine) spillCleanup() {
	s := e.spill
	if s == nil || s.log == nil {
		return
	}
	s.log.Close()
	os.RemoveAll(s.path)
	s.log, s.path = nil, ""
}

// bufferedTrace rebuilds the retained stream as a Trace declared over the
// engine's observed id spaces. With an active spill it is the racelog plus
// the in-memory tail; that materialization is transient — it exists only
// while Close vindicates — so a spill-enabled engine's steady-state memory
// stays bounded by the spill threshold while it streams.
func (e *Engine) bufferedTrace() (*Trace, error) {
	tr := e.spaces
	tr.Events = e.events
	s := e.spill
	if s == nil || s.log == nil {
		return &tr, nil
	}
	// Flush the tail so the log holds the entire stream, then read it back
	// a segment run at a time into one slice of its length.
	if len(e.events) > 0 {
		if err := e.spillFlush(); err != nil {
			return nil, err
		}
	}
	r, err := s.log.Reader()
	if err != nil {
		return nil, fmt.Errorf("race: replaying spill racelog: %w", err)
	}
	defer r.Close()
	tr.Events = make([]Event, s.log.Events())
	for n := 0; n < tr.Len(); {
		k, err := r.ReadBatch(tr.Events[n:])
		if err != nil { // io.EOF included: the log holds what was appended to it
			return nil, fmt.Errorf("race: replaying spill racelog: %w", err)
		}
		n += k
	}
	return &tr, nil
}
