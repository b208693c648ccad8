package vc

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestRelFitsBudget pins the view at 16 bytes (ST-WDC keeps one in every
// critical section) and a clock component at 4 (every clock the analyses
// keep is a run of them).
func TestRelFitsBudget(t *testing.T) {
	if sz := unsafe.Sizeof(Rel{}); sz > 16 {
		t.Errorf("Rel is %d bytes, budget 16", sz)
	}
	if sz := unsafe.Sizeof(Clock(0)); sz != 4 {
		t.Errorf("Clock is %d bytes, want 4", sz)
	}
}

// TestRelReadsOwnOverBase: a view reads own on its owner's component, where
// its base may hold an earlier time, and the base everywhere else — in Get,
// Leq, JoinInto and Copy alike, whatever the base's storage: a clock of its
// own, an arena's whole clock or record, or a snapshot.
func TestRelReadsOwnOverBase(t *testing.T) {
	var a Arena
	var base Ref
	a.PutOver(&base, clockOf(4, 2, 7), 1)
	record := a.At(a.PutOver(&base, clockOf(4, 9, 7), 1), 1)
	wholeRef := a.PutOver(new(Ref), clockOf(4, 9, 7), 1)
	var snap VC
	snap.CopyExact(clockOf(4, 2, 7))
	for _, tc := range []struct {
		name string
		r    Rel
		base func() *VC // what the view's base must still read afterwards
	}{
		{"relative", Relative(*clockOf(4, 2, 7), E(1, 9)), func() *VC { return clockOf(4, 2, 7) }},
		{"arena record", record, func() *VC { w := a.whole(base); return &w }},
		{"arena whole", a.At(wholeRef, 1), func() *VC { w := a.whole(wholeRef); return &w }},
		{"snapshot", Relative(snap, E(1, 9)), func() *VC { return &snap }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r // the clock [4 9 7], owned by thread 1
			before := tc.base().String()
			for u, want := range []Clock{4, 9, 7, 0} {
				if got := r.Get(Tid(u)); got != want {
					t.Errorf("Get(%d) = %d, want %d", u, got, want)
				}
			}
			for _, lc := range []struct {
				p    *VC
				want bool
			}{
				{clockOf(4, 9, 7), true},
				{clockOf(4, 8, 7), false}, // a base of [4 2 7] alone is ⊑ it, own is not
				{clockOf(3, 9, 7), false},
				{clockOf(4, 9), false},
				{clockOf(5, 10, 7, 1), true},
			} {
				if got := r.Leq(lc.p); got != lc.want {
					t.Errorf("Leq(%v) = %v, want %v", lc.p, got, lc.want)
				}
			}
			p := clockOf(5, 3)
			r.JoinInto(p)
			if p.String() != "[5 9 7]" {
				t.Errorf("[5 3] ⊔ view = %v, want [5 9 7]", p)
			}
			if c := r.Copy(); c.String() != "[4 9 7]" {
				t.Errorf("Copy() = %v, want [4 9 7]", c)
			}
			if r.Len() != 3 {
				t.Errorf("Len() = %d, want the base's 3", r.Len())
			}
			if after := tc.base().String(); after != before {
				t.Errorf("reading through the view changed its base from %v to %v", before, after)
			}
		})
	}
	if w := Whole(*clockOf(4, 2, 7), 1); w.Get(1) != 2 || w.Get(2) != 7 {
		t.Errorf("Whole reads %d on its owner's component, want 2", w.Get(1))
	}
	if r := Relative(VC{}, E(2, 5)); r.Array() != nil || r.Len() != 0 || r.Get(2) != 5 || r.Get(0) != 0 {
		t.Errorf("a view over an empty base reads %v", r.Copy())
	}
}

// TestRelKeepsItsBaseAlive: a view is the only reference its base needs. An
// arena chunk or a snapshot that only a view still points into survives two
// collections, reading what it held; once the view goes too, it is freed.
func TestRelKeepsItsBaseAlive(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (Rel, *Clock) // a view, and the start of the allocation it points into
	}{
		{"arena record", func() (Rel, *Clock) {
			a := new(Arena)
			var base Ref
			a.PutOver(&base, clockOf(4, 2, 7, 1), 1)
			r := a.At(a.PutOver(&base, clockOf(4, 9, 7, 1), 1), 1)
			return r, &a.chunks[0][0]
		}},
		{"snapshot", func() (Rel, *Clock) {
			snap := new(VC)
			snap.CopyExact(clockOf(4, 2, 7, 1)) // 32 bytes: not a tiny-allocator block
			return Relative(*snap, E(1, 9)), snap.Array()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			freed := make(chan struct{})
			r := func() Rel {
				r, start := tc.make()
				runtime.SetFinalizer(start, func(*Clock) { close(freed) })
				return r
			}()
			for range 2 {
				runtime.GC()
			}
			select {
			case <-freed:
				t.Fatal("the base was freed while a view of it was live")
			case <-time.After(50 * time.Millisecond):
			}
			if c := r.Copy(); c.String() != "[4 9 7 1]" {
				t.Errorf("after two collections the view reads %v, want [4 9 7 1]", c)
			}
			runtime.KeepAlive(r)
			r = Rel{}
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(5 * time.Second):
				t.Error("the base outlived its last view: the finalizer check cannot see a freed base")
			}
		})
	}
}

// TestRelPanicsPastItsBounds: a view holds its base's length in 16 bits
// (minus one), and a base past that panics where the view is made, never
// reads truncated. A clock component cannot pass what a view holds: Tick
// panics at MaxClock rather than wrap.
func TestRelPanicsPastItsBounds(t *testing.T) {
	wide := VC{c: make([]Clock, 1<<16)}
	wide.c[1<<16-1] = 3
	if r := Relative(wide, E(0, 1)); r.Len() != 1<<16 || r.Get(1<<16-1) != 3 {
		t.Errorf("a base of 1<<16 components reads length %d, last component %d", r.Len(), r.Get(1<<16-1))
	}
	if r := Relative(*clockOf(1, 2), E(1, MaxClock)); r.Get(1) != MaxClock {
		t.Errorf("an owner's component of MaxClock reads %d", r.Get(1))
	}
	top := clockOf(1, MaxClock-1)
	if c := top.Tick(1); c != MaxClock {
		t.Errorf("Tick to MaxClock gave %d", c)
	}
	for name, f := range map[string]func(){
		"Tick at MaxClock":      func() { top.Tick(1) },
		"base wider than 1<<16": func() { Relative(VC{c: make([]Clock, 1<<16+1)}, E(0, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: returned, want a panic", name)
				}
			}()
			f()
		}()
	}
	if top.Get(1) != MaxClock {
		t.Errorf("a Tick that panicked left the clock at %d", top.Get(1))
	}
}
