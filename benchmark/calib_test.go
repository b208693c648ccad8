package main

import (
	"math"
	"testing"
)

func TestScaledDividesByTheKernelsSlowDown(t *testing.T) {
	// A pass timed while the kernel ran 1.5x slow is reported 1.5x faster;
	// one timed at the kernel's calm speed is left alone.
	got := scaled([]float64{3, 2}, []float64{1.5 * refKernelSeconds, refKernelSeconds})
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-2) > 1e-12 {
		t.Fatalf("scaled = %v, want [2 2]", got)
	}
}

func TestRefKernelDoesTheSameWorkEveryRun(t *testing.T) {
	k := newRefKernel()
	k.run()
	first := k.sink
	s := k.run()
	if k.sink != 2*first {
		t.Fatalf("second run folded %d into the sink, first %d: the kernel's work depends on what ran before", k.sink-first, first)
	}
	if s.wall <= 0 || s.cpu <= 0 {
		t.Fatalf("kernel reading %+v", s)
	}
}
