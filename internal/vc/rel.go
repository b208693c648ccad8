package vc

// Rel is a read-only view of a clock logged by one thread, its owner, read
// relative to that owner: own is the owner's component as the epoch
// own@owner, and base holds every other component. base may hold an earlier
// time than own on the owner's component — it is the owner's clock at some
// earlier logging that differs from this one only there — so every read of
// the clock goes through the view, never through base alone.
//
// A Rel owns no storage: base shares an Arena's or a snapshot's, which must
// never be written once viewed.
type Rel struct {
	base VC
	own  Epoch
}

// Relative returns the view of the clock that is base on every component
// but own's thread's, and own there.
func Relative(base VC, own Epoch) Rel { return Rel{base: base, own: own} }

// Whole returns the view of c itself, logged by owner.
func Whole(c VC, owner Tid) Rel { return Rel{base: c, own: c.Epoch(owner)} }

// Get returns u's component of the clock.
func (r *Rel) Get(u Tid) Clock {
	if u == r.own.Tid() {
		return r.own.Clock()
	}
	return r.base.Get(u)
}

// Leq reports r ⊑ p: own ⪯ p, and base ⊑ p off the owner's component. The
// owner's component goes first: it is where a clock logged before p heard
// from the owner usually exceeds p.
func (r *Rel) Leq(p *VC) bool {
	u := r.own.Tid()
	if r.own.Clock() > p.Get(u) {
		return false
	}
	for i, c := range r.base.c {
		if c != 0 && i != int(u) && (i >= len(p.c) || c > p.c[i]) {
			return false
		}
	}
	return true
}

// JoinInto sets p to p ⊔ r: base, then the owner's component raised to own.
func (r *Rel) JoinInto(p *VC) {
	p.Join(&r.base)
	if u := r.own.Tid(); p.Get(u) < r.own.Clock() {
		p.Set(u, r.own.Clock())
	}
}

// Copy returns an independent clock holding r, sized like base.
func (r *Rel) Copy() *VC {
	c := r.base.Copy()
	c.Set(r.own.Tid(), r.own.Clock())
	return c
}

// Base returns the view r reads every component but the owner's from. A
// caller may use it to identify shared storage (VC.Array), never to read r.
func (r *Rel) Base() *VC { return &r.base }
