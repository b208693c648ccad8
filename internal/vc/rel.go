package vc

import "unsafe"

// Rel is a read-only view of a clock logged by one thread, its owner, read
// relative to that owner: own is the owner's component, and base holds every
// other component. base may hold an earlier time than own on the owner's
// component — it is the owner's clock at some earlier logging that differs
// from this one only there — so every read of the clock goes through the
// view, never through base alone.
//
// A Rel owns no storage: base shares an Arena's or a snapshot's, which must
// never be written once viewed. It is 16 bytes, what the critical sections
// that keep one apiece can afford: base is a pointer to the first component
// (nil for an empty base) and last the last thread it has a component for,
// rebuilt into a slice by unsafe.Slice; the pointer keeps the whole chunk or
// snapshot it points into alive, as a slice header would. A Tid is 16 bits,
// so no base is wider than 1<<16 components, and a wider one panics where
// its view is made.
type Rel struct {
	base  *Clock
	own   Clock
	last  Tid // the last thread base has a component for
	owner Tid
}

// Relative returns the view of the clock that is base on every component
// but own's thread's, and own there.
func Relative(base VC, own Epoch) Rel {
	r := Rel{own: own.Clock(), owner: own.Tid()}
	if n := len(base.c); n > 0 {
		if n > 1<<16 {
			panic("vc: a base exceeds what a Rel holds")
		}
		r.base, r.last = &base.c[0], Tid(n-1)
	}
	return r
}

// Whole returns the view of c itself, logged by owner.
func Whole(c VC, owner Tid) Rel { return Relative(c, c.Epoch(owner)) }

// components returns base's components, sharing its storage.
func (r *Rel) components() []Clock { return unsafe.Slice(r.base, r.Len()) }

// Get returns u's component of the clock.
func (r *Rel) Get(u Tid) Clock {
	if u == r.owner {
		return r.own
	}
	if b := r.components(); int(u) < len(b) {
		return b[u]
	}
	return 0
}

// Leq reports r ⊑ p: own ⪯ p, and base ⊑ p off the owner's component. The
// owner's component goes first: it is where a clock logged before p heard
// from the owner usually exceeds p.
func (r *Rel) Leq(p *VC) bool {
	u := r.owner
	if r.own > p.Get(u) {
		return false
	}
	for i, c := range r.components() {
		if c != 0 && i != int(u) && (i >= len(p.c) || c > p.c[i]) {
			return false
		}
	}
	return true
}

// JoinInto sets p to p ⊔ r: base, then the owner's component raised to own.
func (r *Rel) JoinInto(p *VC) {
	p.join(r.components())
	if u := r.owner; p.Get(u) < r.own {
		p.Set(u, r.own)
	}
}

// Copy returns an independent clock holding r, sized like base.
func (r *Rel) Copy() *VC {
	c := &VC{c: make([]Clock, r.Len())}
	copy(c.c, r.components())
	c.Set(r.owner, r.own)
	return c
}

// Len returns the number of components base materializes.
func (r *Rel) Len() int {
	if r.base == nil {
		return 0
	}
	return int(r.last) + 1
}

// Array identifies the array r's base lives in, as VC.Array does, so that
// views sharing one can be counted once; nil for an empty base.
func (r *Rel) Array() *Clock { return r.base }
