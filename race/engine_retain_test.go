package race

import (
	"testing"

	"repro/internal/trace"
)

// TestRetainedTraceDeclaresObservedIDSpaces: id-space observation happens
// in the retain step, so a vindicating engine's rebuilt trace — in memory
// or replayed from a spill — declares every id the stream used (trace.Check
// rejects ids outside the declared spaces), and an engine that retains
// nothing observes nothing.
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

	for name, opts := range map[string][]Option{
		"memory": {WithVindication()},
		"spill":  {WithVindication(), WithSpill(t.TempDir(), 3)},
	} {
		eng, err := NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedBatch(stream[:5]); err != nil {
			t.Fatal(err)
		}
		for _, ev := range stream[5:] {
			if err := eng.Feed(ev); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := eng.bufferedTrace()
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Check(tr); err != nil {
			t.Errorf("%s: rebuilt trace is ill-declared: %v", name, err)
		}
		if got := spacesOf(tr); got != want {
			t.Errorf("%s: rebuilt trace declares %v, want %v", name, got, want)
		}
		if len(tr.Events) != len(stream) {
			t.Errorf("%s: rebuilt trace has %d events, want %d", name, len(tr.Events), len(stream))
		}
		eng.Abort()
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
