package race

import (
	"slices"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// TestRetainedTraceDeclaresObservedIDSpaces: a trace's ids are its
// declaration, so a vindicating engine's rebuilt trace is the stream it
// retained, every id the stream used included, and so is the trace a
// durable session reads back from its journal for the same stream; an
// engine that retains nothing keeps nothing.
func TestRetainedTraceDeclaresObservedIDSpaces(t *testing.T) {
	stream := []Event{
		{T: 0, Op: OpFork, Targ: 6},
		{T: 6, Op: OpAcquire, Targ: 11},
		{T: 6, Op: OpWrite, Targ: 40},
		{T: 6, Op: OpRelease, Targ: 11},
		{T: 2, Op: OpVolatileWrite, Targ: 3},
		{T: 0, Op: OpClassInit, Targ: 8},
		{T: 0, Op: OpJoin, Targ: 6},
		{T: 0, Op: OpRead, Targ: 40},
	}
	want := trace.Extent{Threads: 7, Vars: 41, Locks: 12, Volatiles: 4, Classes: 9}

	memory := func() (*Trace, error) {
		eng, err := NewEngine(WithVindication())
		if err != nil {
			return nil, err
		}
		defer eng.Abort()
		if err := eng.FeedBatch(stream[:5]); err != nil {
			return nil, err
		}
		for _, ev := range stream[5:] {
			if err := eng.FeedBatch([]Event{ev}); err != nil {
				return nil, err
			}
		}
		return &Trace{Events: eng.events}, nil
	}
	// journal appends the stream the way a session's feeder does, across
	// segment boundaries, and reads it back the way the session does at
	// close.
	journal := func() (*Trace, error) {
		l, err := store.Open(t.TempDir(), store.Options{SegmentEvents: 3, NoSync: true})
		if err != nil {
			return nil, err
		}
		defer l.Close()
		if err := l.AppendBatch(stream[:5]); err != nil {
			return nil, err
		}
		if err := l.AppendBatch(stream[5:]); err != nil {
			return nil, err
		}
		r, err := l.Reader()
		if err != nil {
			return nil, err
		}
		defer r.Close()
		evs, err := r.ReadTrace()
		return &Trace{Events: evs}, err
	}
	for name, rebuild := range map[string]func() (*Trace, error){"memory": memory, "journal": journal} {
		tr, err := rebuild()
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Check(tr); err != nil {
			t.Errorf("%s: rebuilt trace is ill formed: %v", name, err)
		}
		if got := trace.ExtentOf(tr.Events); got != want {
			t.Errorf("%s: rebuilt trace declares %v, want %v", name, got, want)
		}
		if !slices.Equal(tr.Events, stream) {
			t.Errorf("%s: rebuilt trace holds %v, want %v", name, tr.Events, stream)
		}
	}

	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch(stream); err != nil {
		t.Fatal(err)
	}
	if eng.events != nil {
		t.Errorf("non-retaining engine kept %d events", len(eng.events))
	}
	eng.Abort()
}
