package race_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/race"
)

// collectSink is an attached sink that keeps what the runtime commits.
type collectSink struct{ events []race.Event }

func (s *collectSink) Feed(e race.Event) error { s.events = append(s.events, e); return nil }
func (s *collectSink) FeedBatch(run []race.Event) error {
	s.events = append(s.events, run...)
	return nil
}
func (s *collectSink) Close() (*race.Report, error) { return nil, nil }

// recordingMistake runs op on a runtime whose main thread has forked one
// child (buffered write pending) and committed one acquire, and returns the
// runtime, its sink, what the sink held before op, and op's panic, if any.
func recordingMistake(op func(rt *race.Runtime, child race.Tid)) (rt *race.Runtime, sink *collectSink, before int, panicked any) {
	sink = &collectSink{}
	rt = race.NewRuntime(race.WithEngineAttached(sink))
	child := rt.Go(rt.Main())
	rt.Write(child, "y")
	rt.Acquire(rt.Main(), "held")
	before = len(sink.events)
	defer func() { panicked = recover() }()
	op(rt, child)
	return rt, sink, before, nil
}

// TestRuntimeUnissuedTidIsAnError: every operation given a Tid the runtime
// never issued used to panic with "index out of range" (Go even registered
// its child first). Now each fails the session with a sticky error naming
// the Tid, commits nothing, and Go registers no child.
func TestRuntimeUnissuedTidIsAnError(t *testing.T) {
	const bad race.Tid = 7
	for _, row := range []struct {
		name string
		op   func(rt *race.Runtime, child race.Tid)
	}{
		{"Read", func(rt *race.Runtime, _ race.Tid) { rt.Read(bad, "x") }},
		{"Write", func(rt *race.Runtime, _ race.Tid) { rt.Write(bad, "x") }},
		{"ReadSkip", func(rt *race.Runtime, _ race.Tid) { rt.ReadSkip(bad, "x", 0) }},
		{"WriteSkip", func(rt *race.Runtime, _ race.Tid) { rt.WriteSkip(bad, "x", 0) }},
		{"Acquire", func(rt *race.Runtime, _ race.Tid) { rt.Acquire(bad, "m") }},
		{"Release", func(rt *race.Runtime, _ race.Tid) { rt.Release(bad, "m") }},
		{"VolatileRead", func(rt *race.Runtime, _ race.Tid) { rt.VolatileRead(bad, "v") }},
		{"VolatileWrite", func(rt *race.Runtime, _ race.Tid) { rt.VolatileWrite(bad, "v") }},
		{"VolatileReadKeyed", func(rt *race.Runtime, _ race.Tid) { rt.VolatileReadKeyed(bad, "v", 1) }},
		{"VolatileWriteKeyed", func(rt *race.Runtime, _ race.Tid) { rt.VolatileWriteKeyed(bad, "v", 1) }},
		{"Go from an unissued parent", func(rt *race.Runtime, _ race.Tid) { rt.Go(bad) }},
		{"Join by an unissued parent", func(rt *race.Runtime, child race.Tid) { rt.Join(bad, child) }},
		{"Join of an unissued child", func(rt *race.Runtime, _ race.Tid) { rt.Join(rt.Main(), bad) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			rt, sink, before, p := recordingMistake(row.op)
			if p != nil {
				t.Fatalf("panics: %v", p)
			}
			if err := rt.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("thread %d", bad)) {
				t.Errorf("Err = %v, want a sticky error naming thread %d", err, bad)
			}
			if len(sink.events) != before {
				t.Errorf("committed %v after the mistake", sink.events[before:])
			}
			if next := rt.Go(rt.Main()); next != 2 {
				t.Errorf("the next fork is thread %d, want 2: the mistake registered a thread", next)
			}
			if _, err := rt.Finish(); err == nil {
				t.Error("Finish after the mistake succeeded")
			}
		})
	}
}

// TestRuntimeSelfJoinIsAnError: Join(t, t) used to be recorded without error
// and then rejected downstream (race.Analyze of the snapshot, or the attached
// engine's checker, poisoning it). Now it is a recording error and commits
// nothing — neither the join nor the thread's buffered accesses.
func TestRuntimeSelfJoinIsAnError(t *testing.T) {
	for _, who := range []string{"main", "forked"} {
		t.Run(who, func(t *testing.T) {
			rt, sink, before, p := recordingMistake(func(rt *race.Runtime, child race.Tid) {
				self := rt.Main()
				if who == "forked" {
					self = child
				}
				rt.Join(self, self)
			})
			if p != nil {
				t.Fatalf("panics: %v", p)
			}
			if err := rt.Err(); err == nil || !strings.Contains(err.Error(), "joins itself") {
				t.Errorf("Err = %v, want a recording error for the self-join", err)
			}
			if len(sink.events) != before {
				t.Errorf("committed %v after the self-join", sink.events[before:])
			}
			if _, err := rt.Snapshot(); err == nil {
				t.Error("Snapshot after a self-join succeeded")
			}
		})
	}
}
