package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestTableMatchesAMap holds a Table to a map over ids that walk up, walk
// down, cluster at the top of the id space and scatter uniformly over all
// of it: every slot At hands out is the id's own, zero until written, and
// Find, At's fast path, sees only ids whose slots At made and misses or
// agrees on every other.
func TestTableMatchesAMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var ids []uint32
	for x := uint32(0); x < 5000; x++ { // up
		ids = append(ids, x)
	}
	for x := uint32(1<<24 + 9000); x > 1<<24; x -= 7 { // down, far above the rest
		ids = append(ids, x)
	}
	for i := 0; i < 3000; i++ {
		ids = append(ids, math.MaxUint32-uint32(r.Intn(4000)), r.Uint32(), uint32(1<<23+r.Intn(600)))
	}
	var tb Table[uint64, [16]uint64]
	want := map[uint32]uint64{}
	for i, x := range ids {
		if got := *tb.At(x); got != want[x] {
			t.Fatalf("step %d: id %d reads %d, want %d", i, x, got, want[x])
		}
		*tb.At(x) = uint64(i) + 1
		want[x] = uint64(i) + 1
	}
	for x, v := range want {
		if p := tb.At(x); *p != v {
			t.Fatalf("At(%d) holds %d, want %d", x, *p, v)
		}
		if p, ok := tb.Find(x); ok && *p != v {
			t.Fatalf("Find(%d) reads %d, want %d", x, *p, v)
		}
		if p, ok := tb.Find(x ^ 1<<12); ok && *p != want[x^1<<12] {
			t.Fatalf("Find(%d) reads %d, want %d", x^1<<12, *p, want[x^1<<12])
		}
	}
	if _, ok := tb.Find(4999); !ok {
		t.Error("Find misses the dense ids")
	}
	if w, most := tb.Weight(1, nil), (1+16+farWords+windowPerSlot*16)*int(tb.made); w > most {
		t.Errorf("%d pages weigh %d words, more than the %d the window's bound allows", tb.made, w, most)
	}
}

// TestTableFarIDCostsAPage: an id far from the rest costs its page and a
// map entry, whatever ids came before it — 2^32-1 beside dense ids, and
// 2^24-16 beside 0, the two ends of one page directory of 2^20 pointers —
// and the weight counts exactly that.
func TestTableFarIDCostsAPage(t *testing.T) {
	var tb Table[uint64, [256]uint64]
	for x := uint32(0); x < 1000; x++ {
		*tb.At(x) = 1
	}
	before := tb.Weight(1, nil)
	*tb.At(math.MaxUint32) = 2
	if grew := tb.Weight(1, nil) - before; grew != 256+farWords {
		t.Errorf("id 2^32-1 weighs %d words, want a page (256) and a map entry (%d)", grew, farWords)
	}
	if _, ok := tb.Find(1 << 20); ok || *tb.At(math.MaxUint32) != 2 || *tb.At(999) != 1 {
		t.Error("the far id's page is not its own")
	}

	var small Table[uint64, [16]uint64]
	*small.At(0) = 1
	before = small.Weight(1, nil)
	*small.At(1<<24 - 16) = 2
	if grew := small.Weight(1, nil) - before; grew != 16+farWords {
		t.Errorf("id 2^24-16 beside 0 weighs %d words, want a page (16) and a map entry (%d)", grew, farWords)
	}
	if *small.At(1<<24 - 16) != 2 || *small.At(0) != 1 {
		t.Error("the far id's page is not its own")
	}
}

// TestTableWindowTakesInMappedPages: ids walked down from the top of a
// range, above a window of two pages at 0, start in the map and end in the
// window, once enough pages are made for it to reach them and a mapped one
// is touched again, so Find finds them all.
func TestTableWindowTakesInMappedPages(t *testing.T) {
	var tb Table[uint32, [16]uint32]
	tb.At(0)
	tb.At(16)
	for x := uint32(1 << 16); x > 0; x-- {
		*tb.At(x - 1) = x
	}
	if len(tb.far) == 0 {
		t.Error("the walk down mapped no page")
	}
	tb.At(1<<16 - 1)
	if len(tb.far) != 0 {
		t.Errorf("%d of %d pages still mapped", len(tb.far), tb.made)
	}
	for x := uint32(0); x < 1<<16; x++ {
		if p, ok := tb.Find(x); !ok || *p != x+1 {
			t.Fatalf("Find(%d) = %v after the walk down", x, p)
		}
	}
}

// TestTableWindowFollowsDenseIDs: dense ids served by the window wherever
// they start — 2^31 up, 2^32-1 down, 0 up after a first id of 2^32-1, and
// a first page at 0 with a far id after it — so that once the walk is done
// Find finds each, at most one page is mapped, and the first id keeps its
// slot.
func TestTableWindowFollowsDenseIDs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, from uint32   // first is touched before the walk from from
		step, n     int64    // n ids step apart
		after       []uint32 // touched after the walk
	}{
		{"2^31 up", 1 << 31, 1 << 31, 1, 50000, nil},
		{"2^32-1 down", math.MaxUint32, math.MaxUint32, -1, 50000, nil},
		{"0 up after 2^32-1", math.MaxUint32, 0, 1, 50000, nil},
		{"0 to 15, then 2^31", 5, 0, 1, 16, []uint32{1 << 31}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tb Table[uint32, [16]uint32]
			*tb.At(tc.first) = 7
			for i := range tc.n {
				if x := uint32(int64(tc.from) + i*tc.step); x != tc.first {
					*tb.At(x) = 1
				}
			}
			for _, x := range tc.after {
				tb.At(x)
			}
			for i := range tc.n {
				x := uint32(int64(tc.from) + i*tc.step)
				if p, ok := tb.Find(x); !ok || p != tb.At(x) {
					t.Fatalf("Find(%d) misses", x)
				}
			}
			if *tb.At(tc.first) != 7 {
				t.Error("the first id lost its slot")
			}
			if len(tb.far) > 1 {
				t.Errorf("%d of %d pages mapped", len(tb.far), tb.made)
			}
		})
	}
}

// TestTableLonePagesStayMapped: a window of one page stays where it is
// while far ids make lone pages, which cost no allocation once made, and
// moves to them once a page is made beside one.
func TestTableLonePagesStayMapped(t *testing.T) {
	var tb Table[uint64, [16]uint64]
	tb.At(0)
	tb.At(1 << 31)
	if allocs := testing.AllocsPerRun(100, func() { tb.At(0); tb.At(1 << 31) }); allocs != 0 {
		t.Errorf("touching two made pages in turn allocates %.0f times", allocs)
	}
	if _, ok := tb.Find(0); !ok || len(tb.far) != 1 {
		t.Errorf("the window left page 0 for a lone page (%d mapped)", len(tb.far))
	}
	tb.At(1<<31 + 16)
	if _, ok := tb.Find(1 << 31); !ok || len(tb.far) != 1 {
		t.Errorf("the window did not move to two pages side by side (%d mapped)", len(tb.far))
	}
}
