package vc

// Ref names a clock stored in an Arena. The zero Ref is none.
type Ref uint32

// arenaBits sets the arena's chunk size: 1<<arenaBits words, 32 KiB. A Ref
// is a chunk number and a word offset in it, so this also fixes how many
// chunks a 4-byte Ref can address (2^19, 16 GiB).
const (
	arenaBits  = 13
	arenaChunk = 1 << arenaBits
	maxChunks  = 1<<(32-arenaBits) - 1
)

// recordTag marks the first word of a record; the first word of a whole
// clock is its length, which never reaches it. Below the tag a record's
// first word holds its base's length.
const recordTag Clock = 1 << 31

// Arena stores clocks that are written once and never changed or freed: the
// critical-section histories that predictive analyses keep for their whole
// lifetime. Each clock is owned by the thread that logged it, and is stored
// in one of two kinds, laid end to end in fixed-size chunks of plain words,
// so a million of them are a few hundred objects with no pointers in them —
// nothing for the allocator to size or for the collector to mark — where a
// million *VC are two million:
//
//   - whole: a length word followed by the components, 4 bytes each;
//   - record, three words, 12 bytes: recordTag with the length of a whole
//     clock of the same owner (its base), the base's Ref, then the owner's
//     component. The clock is the base on every other component. A
//     record's base is always a whole clock, never another record, and
//     reading the record touches the base's words only when a component
//     other than the owner's is read.
//
// PutOver writes a record whenever the clock equals its owner's base off
// the owner's component, which is most of a thread's releases and nearly
// all of its acquires; At reads either kind as a Rel, the view every reader
// goes through.
//
// Write-once is what makes handing out views safe: a view's capacity ends
// where its clock does, so growing one reallocates and can never reach the
// clock stored after it; nobody holds a view that a later PutOver could move —
// chunks are never reallocated, a clock that does not fit starts the next
// one; and a base stays what every record over it was compared with.
type Arena struct {
	chunks [][]Clock
}

// alloc appends n words to the arena and returns their name and storage.
func (a *Arena) alloc(n int) (Ref, []Clock) {
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+n > cap(a.chunks[last]) {
		if last++; last >= maxChunks {
			panic("vc: arena exceeds what a Ref can address")
		}
		// A clock wider than a chunk gets a chunk of its own, still at offset 0.
		a.chunks = append(a.chunks, make([]Clock, 0, max(arenaChunk, n)))
	}
	c := a.chunks[last]
	off := len(c)
	a.chunks[last] = c[:off+n]
	return Ref(last<<arenaBits|off) + 1, c[off : off+n]
}

// put stores a copy of v whole and returns its name.
func (a *Arena) put(v *VC) Ref {
	r, w := a.alloc(len(v.c) + 1)
	w[0] = Clock(len(v.c))
	copy(w[1:], v.c)
	return r
}

// PutOver stores a copy of v, a clock of owner's, and returns its name.
// *base names owner's base, the last of its clocks stored whole, or is zero
// for none. When v equals the base on every component but owner's, v is
// stored as a record over it; otherwise whole, and it becomes *base.
func (a *Arena) PutOver(base *Ref, v *VC, owner Tid) Ref {
	if *base != 0 {
		if b := a.whole(*base); b.EqualExcept(v, owner) {
			r, w := a.alloc(3)
			w[0], w[1], w[2] = recordTag|Clock(b.Len()), Clock(*base), v.Get(owner)
			return r
		}
	}
	*base = a.put(v)
	return *base
}

// At returns a read-only view of the clock r names, logged by owner,
// sharing the arena's storage; the zero Ref reads as the zero clock.
func (a *Arena) At(r Ref, owner Tid) Rel {
	if r == 0 {
		return Rel{}
	}
	c, off := a.word(r)
	h := c[off]
	if h&recordTag == 0 {
		return Whole(a.view(r, int(h)), owner)
	}
	return Relative(a.view(Ref(c[off+1]), int(h&^recordTag)), E(owner, c[off+2]))
}

// Own returns owner's component of the clock r names, logged by owner — what
// At(r, owner).Get(owner) reads — from the record or the whole clock,
// without building the view; the zero Ref reads as 0.
func (a *Arena) Own(r Ref, owner Tid) Clock {
	if r == 0 {
		return 0
	}
	c, off := a.word(r)
	if h := c[off]; h&recordTag != 0 {
		return c[off+2]
	} else if Clock(owner) < h {
		return c[off+1+int(owner)]
	}
	return 0
}

// whole returns the whole clock r names.
func (a *Arena) whole(r Ref) VC {
	c, off := a.word(r)
	return a.view(r, int(c[off]))
}

// view returns the n components of the whole clock r names.
func (a *Arena) view(r Ref, n int) VC {
	c, off := a.word(r)
	lo := off + 1
	return VC{c: c[lo : lo+n : lo+n]}
}

// word returns the chunk holding r and r's offset in it.
func (a *Arena) word(r Ref) ([]Clock, int) {
	r--
	return a.chunks[r>>arenaBits], int(r & (arenaChunk - 1))
}

// Weight is the arena's footprint in 8-byte words: every chunk at its full
// capacity, and the chunk table.
func (a *Arena) Weight() int {
	w := 3 * cap(a.chunks)
	for _, c := range a.chunks {
		w += (cap(c) + 1) / 2
	}
	return w
}
