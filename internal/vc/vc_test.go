package vc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEpochPackUnpack(t *testing.T) {
	cases := []struct {
		t Tid
		c Clock
	}{
		{0, 1}, {1, 0}, {37, 123456789}, {65535, MaxClock}, {7, Inf},
	}
	for _, tc := range cases {
		e := E(tc.t, tc.c)
		if e.Tid() != tc.t || e.Clock() != tc.c {
			t.Errorf("E(%d,%d) round-trip gave %d@%d", tc.t, tc.c, e.Clock(), e.Tid())
		}
	}
}

func TestEpochNone(t *testing.T) {
	if None.String() != "⊥" {
		t.Errorf("None.String() = %q", None.String())
	}
	if got := E(3, 9).String(); got != "9@3" {
		t.Errorf("String = %q, want 9@3", got)
	}
	v := New(4)
	if !EpochLeq(None, v) {
		t.Error("⊥ must be ⪯ every clock")
	}
}

func TestVCGetSetGrow(t *testing.T) {
	v := New(0)
	if v.Get(10) != 0 {
		t.Error("absent slot must read 0")
	}
	v.Set(10, 42)
	if v.Get(10) != 42 {
		t.Error("Set/Get failed")
	}
	if v.Get(5) != 0 {
		t.Error("intermediate slot must be 0")
	}
	if v.Len() != 11 {
		t.Errorf("Len = %d, want 11", v.Len())
	}
}

func TestVCTick(t *testing.T) {
	v := New(2)
	if c := v.Tick(1); c != 1 {
		t.Errorf("first tick = %d", c)
	}
	if c := v.Tick(1); c != 2 {
		t.Errorf("second tick = %d", c)
	}
	if v.Get(0) != 0 {
		t.Error("tick must not touch other slots")
	}
}

func TestJoinIsPointwiseMax(t *testing.T) {
	a, b := New(3), New(3)
	a.Set(0, 5)
	a.Set(1, 1)
	b.Set(1, 7)
	b.Set(2, 2)
	a.Join(b)
	want := []Clock{5, 7, 2}
	for i, w := range want {
		if a.Get(Tid(i)) != w {
			t.Errorf("slot %d = %d, want %d", i, a.Get(Tid(i)), w)
		}
	}
}

func TestJoinNil(t *testing.T) {
	a := New(1)
	a.Set(0, 3)
	a.Join(nil)
	if a.Get(0) != 3 {
		t.Error("join with nil must be identity")
	}
}

func TestJoinGrows(t *testing.T) {
	a, b := New(1), New(5)
	b.Set(4, 9)
	a.Join(b)
	if a.Get(4) != 9 {
		t.Error("join must grow receiver")
	}
}

func TestLeq(t *testing.T) {
	a, b := New(2), New(2)
	a.Set(0, 1)
	b.Set(0, 2)
	b.Set(1, 1)
	if !a.Leq(b) {
		t.Error("a ⊑ b expected")
	}
	if b.Leq(a) {
		t.Error("b ⊑ a unexpected")
	}
	// Differing lengths: longer-with-zeros equals shorter.
	c := New(10)
	c.Set(0, 1)
	if !a.Leq(c) || !c.Leq(b) {
		t.Error("length-insensitive comparison failed")
	}
}

func TestLeqIncomparable(t *testing.T) {
	a, b := New(2), New(2)
	a.Set(0, 2)
	b.Set(1, 2)
	if a.Leq(b) || b.Leq(a) {
		t.Error("incomparable clocks must not be ordered")
	}
}

func TestEpochLeq(t *testing.T) {
	v := New(3)
	v.Set(2, 10)
	if !EpochLeq(E(2, 10), v) {
		t.Error("10@2 ⪯ [.. 10] expected")
	}
	if EpochLeq(E(2, 11), v) {
		t.Error("11@2 ⪯ [.. 10] unexpected")
	}
	if EpochLeq(E(1, 1), v) {
		t.Error("1@1 ⪯ clock with slot-1 zero unexpected")
	}
	if EpochLeq(E(0, Inf), v) {
		t.Error("∞ must never be ⪯ a real clock")
	}
}

func TestCopyIndependence(t *testing.T) {
	a := New(2)
	a.Set(0, 3)
	b := a.Copy()
	b.Set(0, 99)
	if a.Get(0) != 3 {
		t.Error("copy must be independent")
	}
}

func TestCopyFromPreservesIdentity(t *testing.T) {
	shared := New(3)
	shared.Set(0, Inf)
	alias := shared // same object, as CS lists hold references
	src := New(2)
	src.Set(0, 7)
	src.Set(1, 4)
	shared.CopyFrom(src)
	if alias.Get(0) != 7 || alias.Get(1) != 4 || alias.Get(2) != 0 {
		t.Errorf("CopyFrom through alias saw %v", alias)
	}
}

func TestCopyFromClearsTail(t *testing.T) {
	dst := New(4)
	for i := Tid(0); i < 4; i++ {
		dst.Set(i, 9)
	}
	src := New(2)
	src.Set(1, 1)
	dst.CopyFrom(src)
	if dst.Get(2) != 0 || dst.Get(3) != 0 {
		t.Error("CopyFrom must clear slots beyond the source")
	}
}

func TestVCEpoch(t *testing.T) {
	v := New(3)
	v.Set(2, 8)
	if v.Epoch(2) != E(2, 8) {
		t.Error("Epoch extraction failed")
	}
}

func TestStringInf(t *testing.T) {
	v := New(2)
	v.Set(1, Inf)
	if got := v.String(); got != "[0 ∞]" {
		t.Errorf("String = %q", got)
	}
}

// randVC builds a small random clock for property tests.
func randVC(r *rand.Rand) *VC {
	n := r.Intn(6) + 1
	v := New(n)
	for i := 0; i < n; i++ {
		v.Set(Tid(i), Clock(r.Intn(20)))
	}
	return v
}

func TestQuickJoinIsLub(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		j := a.Copy()
		j.Join(b)
		// Upper bound.
		if !a.Leq(j) || !b.Leq(j) {
			return false
		}
		// Least: any other upper bound dominates j.
		u := a.Copy()
		u.Join(b)
		u.Set(0, u.Get(0)+1)
		return j.Leq(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinCommutesAndIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		ab := a.Copy()
		ab.Join(b)
		ba := b.Copy()
		ba.Join(a)
		if !ab.Leq(ba) || !ba.Leq(ab) {
			return false
		}
		aa := a.Copy()
		aa.Join(a)
		return aa.Leq(a) && a.Leq(aa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLeqPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVC(r), randVC(r), randVC(r)
		// Reflexive.
		if !a.Leq(a) {
			return false
		}
		// Transitive.
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEpochLeqAgreesWithVCEmbedding(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randVC(r)
		tid := Tid(r.Intn(6))
		c := Clock(r.Intn(20) + 1)
		e := E(tid, c)
		// Embed the epoch as a singleton VC and compare.
		emb := New(int(tid) + 1)
		emb.Set(tid, c)
		return EpochLeq(e, v) == emb.Leq(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkJoin(b *testing.B) {
	x, y := New(16), New(16)
	for i := Tid(0); i < 16; i++ {
		y.Set(i, Clock(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Join(y)
	}
}

func BenchmarkEpochLeq(b *testing.B) {
	v := New(16)
	v.Set(7, 100)
	e := E(7, 50)
	for i := 0; i < b.N; i++ {
		if !EpochLeq(e, v) {
			b.Fatal("unexpected")
		}
	}
}

func TestCopyExactIsExactAndIndependent(t *testing.T) {
	src := New(2)
	src.Set(4, 7) // grown by doubling: capacity beyond its five slots
	var dst VC
	dst.CopyExact(src)
	if dst.Len() != 5 || dst.Weight() != 5 || dst.Get(4) != 7 {
		t.Errorf("CopyExact gave %v with %d words for a 5-slot clock", &dst, dst.Weight())
	}
	src.Set(4, 9)
	if dst.Get(4) != 7 {
		t.Error("CopyExact must not alias its source")
	}
}

func TestPoolSizesNewClocksOnce(t *testing.T) {
	var p Pool
	v := p.Get(6)
	if v.Weight() != 6 || !v.Leq(New(0)) {
		t.Fatalf("Get(6) = %v with %d words, want a zero clock of 6", v, v.Weight())
	}
	v.Set(5, 3) // within the size it was given: no growth
	if v.Weight() != 6 {
		t.Errorf("filling a pooled clock grew it to %d words", v.Weight())
	}
	p.Put(v)
	if w := p.Get(2); w != v || w.Get(5) != 0 {
		t.Error("a retired clock must come back, zeroed, whatever size is asked for")
	}
}
