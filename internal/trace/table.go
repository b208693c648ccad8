package trace

// Table is the one per-id table of the repository: every state kept per
// variable, lock, volatile or class id lives in one. Those id spaces are
// 32 bits wide and need not be dense, so a table holds pages of slots,
// each made the first time an id in it is touched, in one of two places:
// a window of page pointers from page 0 up, where a stream's dense ids
// live and a lookup is one index, or, for a page the window does not
// reach, a map by page number. The window grows, at least doubling, only
// while it holds at most windowPerSlot pointers per slot of the pages made
// — so the directory costs a few words per slot the table holds, whatever
// the ids — and takes in the mapped pages it then reaches. An id far from
// the rest — 2^32-1, or 2^24-16 beside 0 — costs its page and a map entry,
// not a window reaching out to it.
//
// P is the page, an array of 16 or 256 T, whose length — the page width —
// each use site fixes in its type beside its reason. A fresh slot is T's
// zero value, which must mean "nothing yet"; the zero Table is empty.
type Table[T any, P ~[16]T | ~[256]T] struct {
	pages []*P          // pages[i] holds ids i·len(P) to (i+1)·len(P)-1; nil until one is touched
	far   map[uint32]*P // the pages past the window, by page number
	made  int           // pages made, in the window or the map
}

// windowPerSlot bounds the window: it may grow to at most this many page
// pointers per slot of the pages made, the new one included.
const windowPerSlot = 4

// Find is At's fast path: id x's slot and true if x's page lies in the
// window and exists, false otherwise — At finds or makes every other. It is
// two dependent loads, the page pointer and the slot, and no call, so it
// inlines into the analyses' run loops, which take At only on a miss. The
// page number is below 2^28 on every int width, so its int compare is the
// whole bounds check; and a caller branching on ok, a constant on each
// path, jumps straight from the hit to the slot's use.
func (t *Table[T, P]) Find(x uint32) (*T, bool) {
	var page P
	if i := int(x / uint32(len(page))); i < len(t.pages) {
		if p := t.pages[i]; p != nil {
			return &(*p)[x%uint32(len(page))], true
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
// over a table's life, each time scanning the map once — and then finds or
// makes the page in the window or the map.
func (t *Table[T, P]) grow(x uint32) *T {
	var page P
	n := uint32(len(page))
	pg := int(x / n)
	if l := max(pg+1, 2*len(t.pages)); pg >= len(t.pages) && l <= windowPerSlot*len(page)*(t.made+1) {
		pages := make([]*P, l)
		copy(pages, t.pages)
		for i, p := range t.far {
			if int(i) < l {
				pages[i] = p
				delete(t.far, i)
			}
		}
		t.pages = pages
	}
	var p *P
	if pg < len(t.pages) {
		if p = t.pages[pg]; p == nil {
			p = new(P)
			t.pages[pg] = p
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

// farWords is a mapped page's share of the map in 8-byte words: its key,
// its pointer and the map's control bytes and slack.
const farWords = 3

// Weight is the table's footprint in 8-byte words: the window at its
// capacity, farWords per mapped page, every page at its full width of
// slotWords words a slot, and, when each is not nil, what each returns for
// every slot of every page.
func (t *Table[T, P]) Weight(slotWords int, each func(*T) int) int {
	var page P
	w := cap(t.pages) + farWords*len(t.far) + t.made*slotWords*len(page)
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
