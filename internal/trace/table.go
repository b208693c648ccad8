package trace

import "math"

// Table is the one per-id table of the repository: every state kept per
// variable, lock, volatile or class id lives in one. Those id spaces are
// 32 bits wide and need not be dense, so a table holds pages of slots,
// each made the first time an id in it is touched, in one of two places:
// a window of page pointers, where a stream's dense ids live and a lookup
// is one index, or, for a page the window does not reach, a map by page
// number. The window starts at the first page made — dense ids need not
// start near 0 — and grows, at least doubling, up or down, only while it
// holds at most windowPerSlot pointers per slot of the pages made — so the
// directory costs a few words per slot the table holds, whatever the ids —
// and takes in the mapped pages it then reaches. A window of one page that
// cannot reach the ids made next stays where it is while they make lone
// pages, and moves, its page joining the map, only when one is made beside
// a mapped page: the window serves whichever ids are dense, a first id far
// from them or a small dense group with far ids after it. An id far from
// the rest — 2^32-1, or 2^24-16 beside 0 — costs its page and a map entry,
// not a window reaching out to it.
//
// P is the page, an array of 16 or 256 T, whose length — the page width —
// each use site fixes in its type beside its reason. A fresh slot is T's
// zero value, which must mean "nothing yet"; the zero Table is empty.
type Table[T any, P ~[16]T | ~[256]T] struct {
	pages []*P          // pages[i] holds ids lo + i·len(P) to lo + (i+1)·len(P)-1; nil until one is touched
	far   map[uint32]*P // the pages past the window, by page number
	lo    uint32        // the window's first id, a multiple of len(P)
	made  uint32        // pages made, in the window or the map
}

// windowPerSlot bounds the window: it may grow to at most this many page
// pointers per slot of the pages made, the new one included.
const windowPerSlot = 4

// Find is At's fast path: id x's slot and true if x's page lies in the
// window and exists, false otherwise — At finds or makes every other. It is
// two dependent loads, the page pointer and the slot, and no call, so it
// inlines into the analyses' run loops, which take At only on a miss. An id
// below the window wraps to an offset past it (the window never reaches
// beyond id 2^32-1), and the page index is below 2^28 on every int width,
// so its int compare is the whole bounds check; and a caller branching on
// ok, a constant on each path, jumps straight from the hit to the slot's
// use.
func (t *Table[T, P]) Find(x uint32) (*T, bool) {
	var page P
	d := x - t.lo
	if i := int(d / uint32(len(page))); i < len(t.pages) {
		if p := t.pages[i]; p != nil {
			return &(*p)[d%uint32(len(page))], true
		}
	}
	return nil, false
}

// At returns id x's slot, making its page on first touch.
func (t *Table[T, P]) At(x uint32) *T {
	if p, ok := t.Find(x); ok {
		return p
	}
	return t.grow(x)
}

// grow is At's slow path. It widens the window to reach x's page when the
// bound allows — to at least twice its length, so it widens O(log n) times
// over a table's life, each time scanning the map once — or moves a window
// of at most one page to a page about to be made beside a mapped one (or
// to the first page made), and then finds or makes the page in the window
// or the map.
func (t *Table[T, P]) grow(x uint32) *T {
	var page P
	n := uint32(len(page))
	pg := int(x / n)
	if lo, hi := int(t.lo/n), int(t.lo/n)+len(t.pages); pg < lo || pg >= hi {
		if pg < lo {
			lo = max(0, min(pg, lo-len(t.pages)))
		} else {
			hi = min(max(pg+1, lo+2*len(t.pages)), int(math.MaxUint32/n)+1)
		}
		inWindow := int(t.made) - len(t.far)
		switch {
		case hi-lo <= windowPerSlot*len(page)*int(t.made+1):
			t.widen(lo, hi)
		case inWindow <= 1 && t.far[uint32(pg)] == nil:
			lo, hi = pg, pg+1
			if pg > 0 && t.far[uint32(pg-1)] != nil {
				lo--
			} else if t.far[uint32(pg+1)] != nil {
				hi++
			} else if inWindow == 1 {
				break // a lone page: it joins the map below
			}
			for i, p := range t.pages { // the window's one page, if any, joins the map
				if p != nil {
					t.far[t.lo/n+uint32(i)] = p
				}
			}
			t.pages, t.lo = nil, uint32(lo)*n
			t.widen(lo, hi) // takes in the mapped neighbour
		}
	}
	var p *P
	if i := pg - int(t.lo/n); i >= 0 && i < len(t.pages) {
		if p = t.pages[i]; p == nil {
			p = new(P)
			t.pages[i] = p
			t.made++
		}
	} else if p = t.far[uint32(pg)]; p == nil {
		if t.far == nil {
			t.far = make(map[uint32]*P)
		}
		p = new(P)
		t.far[uint32(pg)] = p
		t.made++
	}
	return &(*p)[x%n]
}

// widen makes the window pages lo to hi-1, which contain the old window:
// it keeps the old window's pages and takes in every mapped page it
// reaches.
func (t *Table[T, P]) widen(lo, hi int) {
	var page P
	n := uint32(len(page))
	pages := make([]*P, hi-lo)
	copy(pages[int(t.lo/n)-lo:], t.pages)
	for i, p := range t.far {
		if int(i) >= lo && int(i) < hi {
			pages[int(i)-lo] = p
			delete(t.far, i)
		}
	}
	t.pages, t.lo = pages, uint32(lo)*n
}

// farWords is a mapped page's share of the map in 8-byte words: its key,
// its pointer and the map's control bytes and slack.
const farWords = 3

// Weight is the table's footprint in 8-byte words: the window at its
// capacity, farWords per mapped page, every page at its full width of
// slotWords words a slot, and, when each is not nil, what each returns for
// every slot of every page.
func (t *Table[T, P]) Weight(slotWords int, each func(*T) int) int {
	var page P
	w := cap(t.pages) + farWords*len(t.far) + int(t.made)*slotWords*len(page)
	if each == nil {
		return w
	}
	slots := func(p *P) {
		for i := range len(page) {
			w += each(&(*p)[i])
		}
	}
	for _, p := range t.pages {
		if p != nil {
			slots(p)
		}
	}
	for _, p := range t.far {
		slots(p)
	}
	return w
}

// EnsureLen grows *s to at least n elements, zero-filled, doubling the
// capacity when it reallocates. It is the grow of thread-indexed rows,
// which stay dense; per-id state lives in a Table.
func EnsureLen[T any](s *[]T, n int) {
	if n <= len(*s) {
		return
	}
	if n <= cap(*s) {
		*s = (*s)[:n]
		return
	}
	grown := make([]T, n, 2*n)
	copy(grown, *s)
	*s = grown
}
