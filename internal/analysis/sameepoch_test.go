package analysis

import (
	"testing"

	"repro/internal/trace"
)

// marks feeds evs to m as one run and returns which of them it marked.
func marks(m *SameEpoch, evs ...trace.Event) []bool {
	same := Same(nil).Cover(len(evs))
	m.Mark(evs, same, 0)
	out := make([]bool, len(evs))
	for i := range evs {
		out[i] = same.Has(i)
	}
	return out
}

func rd(t trace.Tid, x uint32) trace.Event { return trace.Event{T: t, Op: trace.OpRead, Targ: x} }
func wr(t trace.Tid, x uint32) trace.Event { return trace.Event{T: t, Op: trace.OpWrite, Targ: x} }

func wantMarks(t *testing.T, what string, got []bool, want ...bool) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: event %d marked = %v, want %v (all: %v)", what, i, got[i], want[i], got)
		}
	}
}

// TestSameEpochFirstAccessIsNotMarked: a zero stamp matches no access, at
// either end of the thread-id space.
func TestSameEpochFirstAccessIsNotMarked(t *testing.T) {
	for _, tid := range []trace.Tid{0, 65535} {
		var m SameEpoch
		wantMarks(t, "first read, then a repeat", marks(&m, rd(tid, 0), rd(tid, 0)), false, true)
		var w SameEpoch
		wantMarks(t, "first write, then a repeat", marks(&w, wr(tid, 0), wr(tid, 0)), false, true)
	}
}

// TestSameEpochKindMatters: a read after the thread's own write, and a write
// after its own read, are not marked — each level's test for one kind looks
// where only that kind stores.
func TestSameEpochKindMatters(t *testing.T) {
	var m SameEpoch
	wantMarks(t, "w r r w w", marks(&m, wr(1, 3), rd(1, 3), rd(1, 3), wr(1, 3), wr(1, 3)),
		false, false, true, false, true)
}

// TestSameEpochOtherAccessResets: another thread's access to the variable
// in between resets the stamp, whatever its kind; an access to another
// variable does not.
func TestSameEpochOtherAccessResets(t *testing.T) {
	var m SameEpoch
	wantMarks(t, "r1 r2 r1", marks(&m, rd(1, 4), rd(2, 4), rd(1, 4), rd(1, 4)), false, false, false, true)
	wantMarks(t, "r1 w2 r1", marks(&m, rd(1, 5), wr(2, 5), rd(1, 5)), false, false, false)
	wantMarks(t, "r1 r1(y) r1", marks(&m, rd(1, 6), rd(1, 7), rd(1, 6)), false, false, true)
}

// TestSameEpochSyncResets: every synchronisation op of the accessing thread
// ends its epoch; another thread's does not.
func TestSameEpochSyncResets(t *testing.T) {
	for op := trace.OpAcquire; op.Valid(); op++ {
		var m SameEpoch
		own := trace.Event{T: 1, Op: op, Targ: 9}
		other := trace.Event{T: 2, Op: op, Targ: 9}
		wantMarks(t, op.String()+" by the accessing thread", marks(&m, rd(1, 0), own, rd(1, 0)), false, false, false)
		wantMarks(t, op.String()+" by another thread", marks(&m, rd(1, 0), other, rd(1, 0)), true, false, true)
	}
}

// TestSameEpochCountPast32Bits: the synchronisation count is not truncated —
// a stamp 2^32 syncs later is a different epoch — and a count near the top
// of its 47 bits stays out of the kind and thread fields.
func TestSameEpochCountPast32Bits(t *testing.T) {
	var m SameEpoch
	marks(&m, rd(1, 0))
	m.syncs[1] = 1 << 32
	wantMarks(t, "a read 2^32 syncs later", marks(&m, rd(1, 0), rd(1, 0)), false, true)

	var top SameEpoch
	marks(&top, rd(0, 0), rd(1, 1))
	top.syncs[0] = 1<<stampSyncBits - 2
	wantMarks(t, "r w r at the top count", marks(&top, rd(0, 1), wr(0, 1), rd(0, 1), rd(0, 1)), false, false, false, true)
	if (*top.stamps.At(1))>>stampTidShift != 0 {
		t.Errorf("thread 0's stamp at count 2^47-2 reads thread %d", (*top.stamps.At(1))>>stampTidShift)
	}
}

// TestSameEpochMarksAtAnOffset: a run marked at an offset lands at that
// offset, across a 64-bit word boundary, leaving earlier bits as they were.
func TestSameEpochMarksAtAnOffset(t *testing.T) {
	var m SameEpoch
	first := []trace.Event{rd(0, 0), rd(0, 0)}
	for len(first) < 60 {
		first = append(first, wr(1, uint32(len(first))))
	}
	same := Same(nil).Cover(len(first))
	m.Mark(first, same, 0)
	run := []trace.Event{rd(0, 0), wr(2, 1), wr(2, 1), rd(0, 0), wr(2, 1), wr(2, 1), rd(0, 0), rd(0, 0)} // bits 60..67
	same = same.Cover(len(first) + len(run))
	m.Mark(run, same, len(first))
	for i := 0; i < len(first)+len(run); i++ {
		want := i == 1 || i == 60 || i == 62 || i == 63 || i == 64 || i == 65 || i == 66 || i == 67
		if same.Has(i) != want {
			t.Errorf("bit %d = %v, want %v", i, same.Has(i), want)
		}
	}
	if same.Has(len(first) + len(run)) {
		t.Error("a bit past the run is set")
	}
}

// TestSameCoverClearsWhatItAdds: a reused bitmap comes back cleared, and
// growing one keeps the bits it had.
func TestSameCoverClearsWhatItAdds(t *testing.T) {
	s := Same{^uint64(0), ^uint64(0), ^uint64(0)}
	if r := s[:0].Cover(130); len(r) != 3 || r[0]|r[1]|r[2] != 0 {
		t.Errorf("reused bitmap = %x, want three cleared words", r)
	}
	g := Same{5}.Cover(200)
	if len(g) != 4 || g[0] != 5 || g[1]|g[2]|g[3] != 0 {
		t.Errorf("grown bitmap = %x", g)
	}
	var none Same
	if none.Has(0) || none.Has(1000) {
		t.Error("a nil bitmap marks something")
	}
}
