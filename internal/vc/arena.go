package vc

// Ref names a clock stored in an Arena. The zero Ref is none.
type Ref uint32

// arenaBits sets the arena's chunk size: 1<<arenaBits clocks, 64 KiB. A Ref
// is a chunk number and a slot in it, so this also fixes how many chunks a
// 4-byte Ref can address (2^19, 32 GiB).
const (
	arenaBits  = 13
	arenaChunk = 1 << arenaBits
	maxChunks  = 1<<(32-arenaBits) - 1
)

// Arena stores clocks that are written once and never changed or freed: the
// critical-section histories that predictive analyses keep for their whole
// lifetime. A stored clock is a length word followed by its components, laid
// end to end in fixed-size chunks of plain words, so a million of them are a
// few hundred objects with no pointers in them — nothing for the allocator
// to size or for the collector to mark — where a million *VC are two million.
//
// Write-once is what makes handing out views safe: a view's capacity ends
// where its clock does, so growing one reallocates and can never reach the
// clock stored after it, and nobody holds a view that a later Put could
// move — chunks are never reallocated, a clock that does not fit starts the
// next one.
type Arena struct {
	chunks [][]Clock
}

// Put stores a copy of v and returns its name.
func (a *Arena) Put(v *VC) Ref {
	need := len(v.c) + 1
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+need > cap(a.chunks[last]) {
		if last++; last >= maxChunks {
			panic("vc: arena exceeds what a Ref can address")
		}
		// A clock wider than a chunk gets a chunk of its own, still at slot 0.
		a.chunks = append(a.chunks, make([]Clock, 0, max(arenaChunk, need)))
	}
	c := a.chunks[last]
	off := len(c)
	a.chunks[last] = append(append(c, Clock(len(v.c))), v.c...)
	return Ref(last<<arenaBits|off) + 1
}

// At returns a read-only view of the clock r names, sharing the arena's
// storage; the zero Ref reads as the zero clock.
func (a *Arena) At(r Ref) VC {
	if r == 0 {
		return VC{}
	}
	r--
	c := a.chunks[r>>arenaBits]
	lo := int(r&(arenaChunk-1)) + 1
	hi := lo + int(c[lo-1])
	return VC{c: c[lo:hi:hi]}
}

// Weight is the arena's footprint in 8-byte words: every chunk at its full
// capacity, and the chunk table.
func (a *Arena) Weight() int {
	w := 3 * cap(a.chunks)
	for _, c := range a.chunks {
		w += cap(c)
	}
	return w
}
