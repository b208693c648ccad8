package race

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// TestThreadLimitEndsTheSession: Go past the Tid space used to hand out
// Tid(65536) = 0, so the 65,537th goroutine recorded as thread 0. Now it
// fails the session with ErrThreadLimit, and what the refused goroutines
// record — each from its own goroutine, as race/sync's G.Go children do —
// goes nowhere. The limit is lowered here: every fork copies the thread
// table, so 65,536 real ones take seconds.
func TestThreadLimitEndsTheSession(t *testing.T) {
	if threadLimit != 1<<16 {
		t.Fatalf("threadLimit = %d, want the size of the Tid space, %d", threadLimit, 1<<16)
	}
	defer func(n int) { threadLimit = n }(threadLimit)
	threadLimit = 3

	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(WithEngineAttached(eng))
	a, b := rt.Go(rt.Main()), rt.Go(rt.Main())
	rt.Write(a, "x")
	if a != 1 || b != 2 || rt.Err() != nil {
		t.Fatalf("threads %d and %d, Err %v: the first %d goroutines must register", a, b, rt.Err(), threadLimit)
	}

	refused := []Tid{rt.Go(a), rt.Go(b)}
	var wg sync.WaitGroup
	for _, c := range refused {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Write(c, "x")
			rt.Locked(c, "m", func() { rt.Read(c, "y") })
			rt.VolatileWrite(c, "v")
			rt.Join(c, rt.Go(c))
		}()
	}
	wg.Wait()
	rt.Write(rt.Main(), "x")
	rt.Join(rt.Main(), refused[0])

	if len(rt.stream) != 2 || rt.stream[0].Op != OpFork || rt.stream[1].Op != OpFork {
		t.Errorf("stream after the limit: %v, want the two forks committed before it and nothing since", rt.stream)
	}
	if err := rt.Err(); !errors.Is(err, ErrThreadLimit) {
		t.Errorf("Err = %v, want ErrThreadLimit", err)
	}
	if _, err := rt.Snapshot(); !errors.Is(err, ErrThreadLimit) {
		t.Errorf("Snapshot error = %v, want ErrThreadLimit", err)
	}
	if _, err := rt.Finish(); !errors.Is(err, ErrThreadLimit) {
		t.Errorf("Finish error = %v, want ErrThreadLimit", err)
	}
}

// TestEndedSessionDoesNotAllocate: after ErrThreadLimit an operation used to
// record into a throwaway thread state built for it (four maps; 30
// allocations per read + acquire + release). Now it returns at the door.
func TestEndedSessionDoesNotAllocate(t *testing.T) {
	defer func(n int) { threadLimit = n }(threadLimit)
	threadLimit = 2

	rt := NewRuntime()
	a := rt.Go(rt.Main())
	rt.Go(a) // refused: the session ends
	if !errors.Is(rt.Err(), ErrThreadLimit) {
		t.Fatalf("Err = %v, want ErrThreadLimit", rt.Err())
	}
	var x, m, v int
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"Read", func() { rt.Read(a, &x) }},
		{"Acquire", func() { rt.Acquire(a, &m) }},
		{"Release", func() { rt.Release(a, &m) }},
		{"VolatileWrite", func() { rt.VolatileWrite(a, &v) }},
		{"Join", func() { rt.Join(rt.Main(), a) }},
	} {
		if n := testing.AllocsPerRun(100, row.op); n != 0 {
			t.Errorf("%s after ErrThreadLimit: %v allocations, want 0", row.name, n)
		}
	}
}

// TestEventLimitEndsTheStream: an engine's analyses index events with an
// int32, so a stream past math.MaxInt32 events used to wrap their indices.
// Now the run that would cross the bound is refused with ErrEventLimit,
// sticky through FeedBatch and Close, in every engine shape, unchecked input
// included. The engine's count starts just under the bound: feeding 2^31
// real events takes minutes.
func TestEventLimitEndsTheStream(t *testing.T) {
	run := []Event{{T: 0, Op: OpWrite, Targ: 0}, {T: 0, Op: OpRead, Targ: 1}}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"sequential", nil},
		{"unchecked", []Option{WithUncheckedInput()}},
		{"fan-out", []Option{WithAnalysisNames("FTO-WDC", "ST-WDC")}},
		{"parallel", []Option{WithAnalysisNames("FTO-HB", "ST-WDC"), WithParallelism(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			eng.fed = math.MaxInt32 - 3
			if err := eng.FeedBatch(run); err != nil {
				t.Fatalf("a run ending one event under the bound: %v", err)
			}
			if err := eng.FeedBatch(run); !errors.Is(err, ErrEventLimit) {
				t.Fatalf("a run crossing the bound: %v, want ErrEventLimit", err)
			}
			if eng.Fed() != math.MaxInt32-1 {
				t.Errorf("Fed = %d, want the refused run uncounted (%d)", eng.Fed(), math.MaxInt32-1)
			}
			if err := eng.FeedBatch([]Event{run[0]}); !errors.Is(err, ErrEventLimit) {
				t.Errorf("a one-event FeedBatch after the limit: %v, want ErrEventLimit", err)
			}
			if _, err := eng.Close(); !errors.Is(err, ErrEventLimit) {
				t.Errorf("Close after the limit: %v, want ErrEventLimit", err)
			}
		})
	}
}
