package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{Name: "pass", ID: 1, Start: us(0), End: us(100)},
		// Two overlapping children (concurrent clients) cover 10..60 once.
		{Name: "flush", ID: 2, Parent: 1, Start: us(10), End: us(50)},
		{Name: "flush", ID: 3, Parent: 1, Start: us(30), End: us(60)},
		// A grandchild takes from its parent, not from the pass.
		{Name: "sync", ID: 4, Parent: 2, Start: us(20), End: us(30)},
		// A child running past its parent's end is clipped.
		{Name: "close", ID: 5, Parent: 1, Start: us(90), End: us(120)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"pass":  us(100 - 50 - 10),
		"flush": us(40 - 10 + 30),
		"sync":  us(10),
		"close": us(30),
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	off.end(off.begin("x", 0, 1)) // tracing off: no-ops
	if off.finished() != nil {
		t.Error("nil recorder has spans")
	}
	r := newRecorder()
	root := r.begin("root", 0, 7)
	child := r.begin("child", root, 7)
	r.begin("never-ended", root, 7)
	r.end(child)
	r.end(root)
	got := r.finished()
	if len(got) != 2 || got[0].Name != "root" || got[1].Parent != root || got[1].Pass != 7 {
		t.Errorf("finished spans = %+v", got)
	}
}
