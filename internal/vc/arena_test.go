package vc

import "testing"

func clockOf(cs ...Clock) *VC { return &VC{c: cs} }

func TestArenaRefZeroIsNone(t *testing.T) {
	var a Arena
	if v := a.At(0); v.Len() != 0 || v.Get(3) != 0 {
		t.Errorf("the zero Ref must read as the zero clock, got %v", &v)
	}
	if r := a.Put(New(0)); r == 0 {
		t.Error("the first stored clock, even an empty one, must not be named 0")
	}
	if a.Weight() < arenaChunk {
		t.Errorf("Weight = %d, must count the whole first chunk", a.Weight())
	}
}

func TestArenaViewsAreIndependentOfTheirNeighbours(t *testing.T) {
	var a Arena
	src := clockOf(1, 2, 3)
	r1 := a.Put(src)
	r2 := a.Put(clockOf(7, 8))
	src.Set(0, 99) // Put copied: the source may go on changing
	v1, v2 := a.At(r1), a.At(r2)
	if v1.String() != "[1 2 3]" || v2.String() != "[7 8]" {
		t.Fatalf("stored clocks read %v and %v", &v1, &v2)
	}
	// Growing a view must reallocate it, not write over the clock stored
	// next: that is what lets At hand out the arena's own memory.
	v1.Set(3, 42)
	v1.Join(clockOf(0, 0, 0, 0, 5, 6, 7))
	if v2 = a.At(r2); v2.String() != "[7 8]" {
		t.Errorf("growing the first view changed its neighbour to %v", &v2)
	}
	if v1 = a.At(r1); v1.String() != "[1 2 3]" {
		t.Errorf("growing a view changed the stored clock to %v", &v1)
	}
}

func TestArenaStartsANewChunkWhenAClockDoesNotFit(t *testing.T) {
	var a Arena
	wide := New(arenaChunk/2 - 1) // with its length word: exactly half a chunk
	wide.Set(0, 5)
	r1, r2 := a.Put(wide), a.Put(wide)
	if len(a.chunks) != 1 || len(a.chunks[0]) != arenaChunk {
		t.Fatalf("two half-chunk clocks must fill one chunk exactly: %d chunks", len(a.chunks))
	}
	first := &a.chunks[0][0]
	r3 := a.Put(clockOf(9))
	if len(a.chunks) != 2 || &a.chunks[0][0] != first {
		t.Fatalf("a clock that does not fit must start chunk 2 and leave chunk 1 where it is: %d chunks", len(a.chunks))
	}
	for i, r := range []Ref{r1, r2} {
		if v := a.At(r); v.Len() != wide.Len() || v.Get(0) != 5 {
			t.Errorf("clock %d unreadable after the arena grew", i+1)
		}
	}
	if v := a.At(r3); v.String() != "[9]" {
		t.Errorf("first clock of chunk 2 reads %v", &v)
	}
	// Wider than a chunk: a chunk of its own, and the arena carries on.
	huge := New(arenaChunk + 10)
	huge.Set(Tid(arenaChunk+9), 77)
	r4, r5 := a.Put(huge), a.Put(clockOf(3))
	if v := a.At(r4); v.Len() != huge.Len() || v.Get(Tid(arenaChunk+9)) != 77 {
		t.Error("a clock wider than a chunk must be stored whole")
	}
	if v := a.At(r5); v.String() != "[3]" {
		t.Errorf("clock after the oversized one reads %v", &v)
	}
}

func TestArenaPutInsideAChunkDoesNotAllocate(t *testing.T) {
	var a Arena
	v := clockOf(1, 2, 3, 4, 5, 6, 7, 8)
	a.Put(v)         // allocates the chunk
	const runs = 500 // × 9 words: well inside the first chunk
	var sink Clock
	if n := testing.AllocsPerRun(runs, func() {
		got := a.At(a.Put(v))
		sink += got.Get(7)
	}); n != 0 {
		t.Errorf("Put + At inside a chunk: %v allocs, want 0", n)
	}
	if len(a.chunks) != 1 || sink == 0 {
		t.Fatalf("the loop left the first chunk (%d chunks) or read nothing", len(a.chunks))
	}
}
