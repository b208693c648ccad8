package vc

import "testing"

// TestRelReadsOwnOverBase: a view reads own on its owner's component, where
// its base holds an earlier time, and the base everywhere else — in Get,
// Leq, JoinInto and Copy alike.
func TestRelReadsOwnOverBase(t *testing.T) {
	base := clockOf(4, 2, 7)
	r := Relative(*base, E(1, 9)) // the clock [4 9 7], owned by thread 1
	for u, want := range []Clock{4, 9, 7, 0} {
		if got := r.Get(Tid(u)); got != want {
			t.Errorf("Get(%d) = %d, want %d", u, got, want)
		}
	}
	for _, tc := range []struct {
		p    *VC
		want bool
	}{
		{clockOf(4, 9, 7), true},
		{clockOf(4, 8, 7), false}, // the base alone is ⊑ it, own is not
		{clockOf(3, 9, 7), false},
		{clockOf(4, 9), false},
		{clockOf(5, 10, 7, 1), true},
	} {
		if got := r.Leq(tc.p); got != tc.want {
			t.Errorf("Leq(%v) = %v, want %v", tc.p, got, tc.want)
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
	if base.String() != "[4 2 7]" {
		t.Errorf("reading through the view changed its base to %v", base)
	}
	if w := Whole(*clockOf(4, 2, 7), 1); w.Get(1) != 2 || w.Get(2) != 7 {
		t.Errorf("Whole reads %d on its owner's component, want 2", w.Get(1))
	}
}
