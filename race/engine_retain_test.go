package race

import (
	"slices"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// TestRetainedTraceDeclaresObservedIDSpaces: id-space observation happens
// in the retain step, so a vindicating engine's rebuilt trace declares every
// id the stream used (trace.Check rejects ids outside the declared spaces),
// and so does the trace a durable session reads back from its journal for
// the same stream; an engine that retains nothing observes nothing.
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
	spacesOf := func(tr *Trace) [5]int {
		return [5]int{tr.Threads, tr.Vars, tr.Locks, tr.Volatiles, tr.Classes}
	}
	want := [5]int{7, 41, 12, 4, 9}

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
			if err := eng.Feed(ev); err != nil {
				return nil, err
			}
		}
		tr := eng.spaces
		tr.Events = eng.events
		return &tr, nil
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
		return r.ReadTrace()
	}
	for name, rebuild := range map[string]func() (*Trace, error){"memory": memory, "journal": journal} {
		tr, err := rebuild()
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Check(tr); err != nil {
			t.Errorf("%s: rebuilt trace is ill-declared: %v", name, err)
		}
		if got := spacesOf(tr); got != want {
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
	if spacesOf(&eng.spaces) != [5]int{} || eng.events != nil {
		t.Errorf("non-retaining engine observed %v and kept %d events", spacesOf(&eng.spaces), len(eng.events))
	}
	eng.Abort()
}
