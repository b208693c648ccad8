// Package vc provides the logical-time primitives shared by every analysis
// in this repository: epochs (a scalar clock@thread pair) and vector clocks.
//
// The representation follows FastTrack (Flanagan & Freund 2009) and the
// SmartTrack paper: an epoch c@t packs a thread id and a scalar clock into a
// single word; a vector clock maps each thread to a clock. Vector clocks
// here store one clock per thread slot (the paper's "vector clocks map to
// epochs" presentation is equivalent because slot t always holds a time of
// thread t).
package vc

import (
	"fmt"
	"strings"
)

// Tid identifies a thread. Thread ids are dense and small (DaCapo peaks at
// 37 threads); 16 bits leaves ample room.
type Tid uint16

// Clock is a scalar logical clock value. Clocks start at 1 for each thread's
// own component and increment at synchronization operations.
type Clock uint64

const (
	// tidBits is the number of low bits of an Epoch holding the thread id.
	tidBits = 16
	// MaxClock is the largest representable clock value.
	MaxClock Clock = (1 << (64 - tidBits)) - 1
	// Inf is a sentinel clock that is never ⪯ any real clock; String renders
	// it as ∞.
	Inf Clock = MaxClock
)

// Epoch is a scalar logical time c@t: the clock c of thread t. The zero
// Epoch is ⊥ (no access recorded): thread 0's clocks start at 1, so 0@0
// never names a real event.
type Epoch uint64

// None is the uninitialized epoch ⊥.
const None Epoch = 0

// E constructs the epoch c@t.
func E(t Tid, c Clock) Epoch {
	return Epoch(uint64(c)<<tidBits | uint64(t))
}

// Tid returns the thread component of the epoch.
func (e Epoch) Tid() Tid { return Tid(e & (1<<tidBits - 1)) }

// Clock returns the clock component of the epoch.
func (e Epoch) Clock() Clock { return Clock(e >> tidBits) }

// String renders the epoch as c@t, or ⊥ for None.
func (e Epoch) String() string {
	if e == None {
		return "⊥"
	}
	return fmt.Sprintf("%d@%d", e.Clock(), e.Tid())
}

// VC is a vector clock: a map from thread id to clock, represented densely.
// The zero VC maps every thread to 0. VCs grow on demand; absent slots read
// as 0.
type VC struct {
	c []Clock
}

// New returns a vector clock with capacity for n threads, all zero.
func New(n int) *VC { return &VC{c: make([]Clock, n)} }

// Get returns the clock for thread t (0 if the slot was never written).
func (v *VC) Get(t Tid) Clock {
	if int(t) >= len(v.c) {
		return 0
	}
	return v.c[t]
}

// Set assigns clock c to thread t, growing the vector if needed.
func (v *VC) Set(t Tid, c Clock) {
	v.grow(int(t) + 1)
	v.c[t] = c
}

// Tick increments thread t's component and returns the new value.
func (v *VC) Tick(t Tid) Clock {
	v.grow(int(t) + 1)
	v.c[t]++
	return v.c[t]
}

func (v *VC) grow(n int) {
	if n <= len(v.c) {
		return
	}
	if n <= cap(v.c) {
		v.c = v.c[:n]
		return
	}
	nc := make([]Clock, n, 2*n)
	copy(nc, v.c)
	v.c = nc
}

// Join sets v to the pointwise maximum of v and o (v ⊔ o).
func (v *VC) Join(o *VC) {
	if o == nil {
		return
	}
	v.grow(len(o.c))
	for i, oc := range o.c {
		if oc > v.c[i] {
			v.c[i] = oc
		}
	}
}

// Leq reports v ⊑ o: pointwise ≤.
func (v *VC) Leq(o *VC) bool {
	for i, c := range v.c {
		if c == 0 {
			continue
		}
		if int(i) >= len(o.c) || c > o.c[i] {
			return false
		}
	}
	return true
}

// EpochLeq reports e ⪯ v: for e = c@t, c ≤ v(t). None ⪯ everything.
func EpochLeq(e Epoch, v *VC) bool {
	if e == None {
		return true
	}
	return e.Clock() <= v.Get(e.Tid())
}

// Copy returns an independent deep copy of v.
func (v *VC) Copy() *VC {
	n := &VC{c: make([]Clock, len(v.c))}
	copy(n.c, v.c)
	return n
}

// CopyFrom overwrites v in place with the contents of o, preserving v's
// identity and reusing its capacity: the per-lock release clocks are
// overwritten at every release.
func (v *VC) CopyFrom(o *VC) {
	v.grow(len(o.c))
	copy(v.c, o.c)
	for i := len(o.c); i < len(v.c); i++ {
		v.c[i] = 0
	}
}

// CopyExact overwrites v with the contents of o in a fresh array of exactly
// o.Len() slots, for a clock that is written once and then only read:
// SmartTrack stores a critical section's release time this way, in the
// section that CS lists and extra metadata already reference. CopyFrom, which
// keeps and doubles capacity, is for clocks that are overwritten repeatedly.
func (v *VC) CopyExact(o *VC) {
	v.c = make([]Clock, len(o.c))
	copy(v.c, o.c)
}

// Epoch returns thread t's component of v as the epoch v(t)@t.
func (v *VC) Epoch(t Tid) Epoch { return E(t, v.Get(t)) }

// Len returns the number of materialized thread slots.
func (v *VC) Len() int { return len(v.c) }

// String renders the clock as [c0, c1, ...], using ∞ for pending releases.
func (v *VC) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range v.c {
		if i > 0 {
			b.WriteByte(' ')
		}
		if c == Inf {
			b.WriteByte(0xE2) // "∞" (UTF-8 e2 88 9e)
			b.WriteByte(0x88)
			b.WriteByte(0x9E)
		} else {
			fmt.Fprintf(&b, "%d", c)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Weight is the memory footprint of the clock in 8-byte words, used by the
// benchmark harness to estimate retained analysis metadata.
func (v *VC) Weight() int { return cap(v.c) }

// Pool is a free list of scratch vector clocks for single-threaded reuse.
// Analyses whose metadata transitions retire clocks deterministically (e.g.
// a shared read vector clock discarded at the next write) recycle them
// through a Pool instead of allocating a fresh clock per transition — one
// of the hot-path allocation sinks the SmartTrack paper's ~1.5× slowdown
// budget cannot afford. A Pool is not safe for concurrent use; each
// analysis instance owns its own.
type Pool struct {
	free []*VC
}

// Get returns a zeroed clock, reusing a retired one when available; a new
// one is sized for n threads, so that filling it in does not grow it.
func (p *Pool) Get(n int) *VC {
	if last := len(p.free) - 1; last >= 0 {
		v := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		return v
	}
	return New(n)
}

// Put retires v into the pool. v must not be referenced elsewhere; its
// contents are zeroed so a later Get starts from the zero clock.
func (p *Pool) Put(v *VC) {
	if v == nil {
		return
	}
	clear(v.c)
	p.free = append(p.free, v)
}
