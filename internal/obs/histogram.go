package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed, pre-sorted buckets.
//
// Observe is lock-free and allocation-free: a binary search over the
// (immutable) bound slice, one atomic bucket increment, and one CAS
// loop folding the observation into the float64 sum. The total count
// is derived from the buckets at snapshot time rather than kept as a
// separate atomic, so an exposition's _count always equals its +Inf
// cumulative bucket even under concurrent observation.
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	sortedCheck(bounds)
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; len(bounds) is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// value snapshots the histogram.
func (h *Histogram) value() *HistogramValue {
	v := &HistogramValue{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		v.Counts[i] = n
		v.Count += n
	}
	v.Sum = math.Float64frombits(h.sumBits.Load())
	return v
}

// HistogramValue is a point-in-time histogram snapshot.
type HistogramValue struct {
	Bounds []float64 // upper bounds, ascending; +Inf implicit
	Counts []uint64  // per-bucket counts, len = len(Bounds)+1
	Count  uint64    // total observations (= sum of Counts)
	Sum    float64
}
