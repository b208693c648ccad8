package vc

import (
	"testing"
	"unsafe"
)

func clockOf(cs ...Clock) *VC { return &VC{c: cs} }

func TestArenaRefZeroIsNone(t *testing.T) {
	var a Arena
	if v := a.At(0, 3); v.Get(3) != 0 || v.Get(0) != 0 || !v.Leq(New(0)) {
		t.Errorf("the zero Ref must read as the zero clock, got %v", v.Copy())
	}
	if r := a.put(New(0)); r == 0 {
		t.Error("the first stored clock, even an empty one, must not be named 0")
	}
	if a.Weight() < arenaChunk/2 { // 4-byte words, weighed in 8-byte ones
		t.Errorf("Weight = %d, must count the whole first chunk", a.Weight())
	}
}

func TestArenaViewsAreIndependentOfTheirNeighbours(t *testing.T) {
	var a Arena
	src := clockOf(1, 2, 3)
	r1 := a.put(src)
	r2 := a.put(clockOf(7, 8))
	src.Set(0, 99) // put copied: the source may go on changing
	v1, v2 := a.whole(r1), a.whole(r2)
	if v1.String() != "[1 2 3]" || v2.String() != "[7 8]" {
		t.Fatalf("stored clocks read %v and %v", &v1, &v2)
	}
	// Growing a view must reallocate it, not write over the clock stored
	// next: that is what lets At hand out the arena's own memory.
	v1.Set(3, 42)
	v1.Join(clockOf(0, 0, 0, 0, 5, 6, 7))
	if v2 = a.whole(r2); v2.String() != "[7 8]" {
		t.Errorf("growing the first view changed its neighbour to %v", &v2)
	}
	if v1 = a.whole(r1); v1.String() != "[1 2 3]" {
		t.Errorf("growing a view changed the stored clock to %v", &v1)
	}
}

func TestArenaStartsANewChunkWhenAClockDoesNotFit(t *testing.T) {
	var a Arena
	wide := New(arenaChunk/2 - 1) // with its length word: exactly half a chunk
	wide.Set(0, 5)
	r1, r2 := a.put(wide), a.put(wide)
	if len(a.chunks) != 1 || len(a.chunks[0]) != arenaChunk {
		t.Fatalf("two half-chunk clocks must fill one chunk exactly: %d chunks", len(a.chunks))
	}
	first := &a.chunks[0][0]
	r3 := a.put(clockOf(9))
	if len(a.chunks) != 2 || &a.chunks[0][0] != first {
		t.Fatalf("a clock that does not fit must start chunk 2 and leave chunk 1 where it is: %d chunks", len(a.chunks))
	}
	for i, r := range []Ref{r1, r2} {
		if v := a.whole(r); v.Len() != wide.Len() || v.Get(0) != 5 {
			t.Errorf("clock %d unreadable after the arena grew", i+1)
		}
	}
	if v := a.whole(r3); v.String() != "[9]" {
		t.Errorf("first clock of chunk 2 reads %v", &v)
	}
	// Wider than a chunk: a chunk of its own, and the arena carries on.
	huge := New(arenaChunk + 10)
	huge.Set(Tid(arenaChunk+9), 77)
	r4, r5 := a.put(huge), a.put(clockOf(3))
	if v := a.whole(r4); v.Len() != huge.Len() || v.Get(Tid(arenaChunk+9)) != 77 {
		t.Error("a clock wider than a chunk must be stored whole")
	}
	if v := a.whole(r5); v.String() != "[3]" {
		t.Errorf("clock after the oversized one reads %v", &v)
	}
}

func TestArenaPutInsideAChunkDoesNotAllocate(t *testing.T) {
	var a Arena
	v := clockOf(1, 2, 3, 4, 5, 6, 7, 8)
	a.put(v)         // allocates the chunk
	const runs = 500 // × 9 words: well inside the first chunk
	var sink Clock
	if n := testing.AllocsPerRun(runs, func() {
		got := a.At(a.put(v), 0)
		sink += got.Get(7)
	}); n != 0 {
		t.Errorf("put + At inside a chunk: %v allocs, want 0", n)
	}
	if len(a.chunks) != 1 || sink == 0 {
		t.Fatalf("the loop left the first chunk (%d chunks) or read nothing", len(a.chunks))
	}
}

// TestArenaRecordsReadTheirClock logs a thread's clocks through PutOver: a
// clock equal to the base off the owner's component is a 12-byte record
// and reads back whole; one that differs elsewhere, or in length, is stored
// whole in 4 bytes per component plus a 4-byte length, and becomes the
// base, and the records over the old base still read what they were. Own
// reads the owner's component of either kind, as the view does.
func TestArenaRecordsReadTheirClock(t *testing.T) {
	var a Arena
	var base Ref
	const owner = 1
	logged := []*VC{
		clockOf(4, 2, 7),     // whole: no base yet
		clockOf(4, 3, 7),     // record
		clockOf(4, 9, 7),     // record
		clockOf(5, 9, 7),     // whole: component 0 changed
		clockOf(5, 9, 7),     // record, own unchanged
		clockOf(5, 11, 7, 1), // whole: longer
		clockOf(5, 12, 7, 1), // record
	}
	wholes := map[int]bool{0: true, 3: true, 5: true}
	var refs []Ref
	for i, v := range logged {
		before := 0
		if len(a.chunks) > 0 {
			before = len(a.chunks[0])
		}
		prev := base
		refs = append(refs, a.PutOver(&base, v, owner))
		bytes := (len(a.chunks[0]) - before) * int(unsafe.Sizeof(Clock(0)))
		if wholes[i] {
			if want := 4 + 4*v.Len(); base != refs[i] || bytes != want {
				t.Errorf("clock %d: %d bytes, base %d → %d; want it whole (%d bytes) and the new base", i, bytes, prev, base, want)
			}
		} else if base != prev || bytes != 12 {
			t.Errorf("clock %d: %d bytes, base %d → %d; want a 12-byte record over the same base", i, bytes, prev, base)
		}
	}
	for i, v := range logged {
		got := a.At(refs[i], owner)
		if c := got.Copy(); c.String() != v.String() {
			t.Errorf("clock %d reads %v, logged %v", i, c, v)
		}
		for u := range Tid(5) {
			if got.Get(u) != v.Get(u) {
				t.Errorf("clock %d: Get(%d) = %d, logged %d", i, u, got.Get(u), v.Get(u))
			}
		}
		if own := a.Own(refs[i], owner); own != v.Get(owner) {
			t.Errorf("clock %d: Own = %d, logged %d", i, own, v.Get(owner))
		}
	}
	if short := a.put(clockOf(3)); a.Own(short, 2) != 0 || a.Own(0, owner) != 0 {
		t.Error("Own past a whole clock's length, or of the zero Ref, must read 0")
	}
	// A record's base is a whole clock, never a record: the record of clock
	// 2 views clock 0.
	if r, w := a.At(refs[2], owner), a.whole(refs[0]); r.Array() != w.Array() {
		t.Error("a record must view the whole clock it was compared with")
	}
}
