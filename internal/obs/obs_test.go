package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	r.GaugeFunc("g", "a gauge", func() float64 { return 4 })
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	r.GaugeFunc("gf", "computed", func() float64 { return 2.5 })
	r.CounterFunc("cf_seconds_total", "computed", func() float64 { return 0.75 })

	snaps := r.Snapshot()
	if len(snaps) != 4 {
		t.Fatalf("snapshot has %d metrics, want 4", len(snaps))
	}
	if snaps[3].Name != "cf_seconds_total" || snaps[3].Value != 0.75 || snaps[3].Kind != KindCounter {
		t.Errorf("snap[3] = %+v, want a counter reading 0.75", snaps[3])
	}
	if snaps[0].Name != "c_total" || snaps[0].Value != 42 {
		t.Errorf("snap[0] = %+v", snaps[0])
	}
	if snaps[2].Name != "gf" || snaps[2].Value != 2.5 {
		t.Errorf("snap[2] = %+v", snaps[2])
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x_total", "")
}

func TestLabelsDistinguishRegistrations(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shard_total", "", L("shard", "0"))
	b := r.Counter("shard_total", "", L("shard", "1"))
	a.Add(1)
	b.Add(2)
	snaps := r.Snapshot()
	if len(snaps) != 2 || snaps[0].Value != 1 || snaps[1].Value != 2 {
		t.Fatalf("labelled snaps wrong: %+v", snaps)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// exactly on a bound lands in that bound's bucket, just above it lands
// in the next, and out-of-range lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 4.5, 100} {
		h.Observe(v)
	}
	hv := r.Snapshot()[0].Hist
	want := []uint64{2, 2, 2, 2} // (-inf,1], (1,2], (2,4], (4,+inf)
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	if hv.Count != 8 {
		t.Errorf("count = %d, want 8", hv.Count)
	}
	if got, want := hv.Sum, 0.5+1+1.5+2+2.5+4+4.5+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

// TestQuantileAccuracy feeds a known uniform distribution and checks
// the interpolated quantiles land within one bucket width.
func TestQuantileAccuracy(t *testing.T) {
	r := NewRegistry()
	bounds := make([]float64, 100) // 10,20,...,1000
	for i := range bounds {
		bounds[i] = float64(10 * (i + 1))
	}
	h := r.Histogram("q", "", bounds)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	hv := r.Snapshot()[0].Hist
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 500, 10},
		{0.90, 900, 10},
		{0.99, 990, 10},
		{1.00, 1000, 10},
	} {
		if got := hv.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	if empty := (&HistogramValue{}); empty.Quantile(0.5) != 0 {
		t.Errorf("empty quantile != 0")
	}
}

// TestQuantileInfBucket: when the rank falls in the +Inf bucket the
// estimate clamps to the last finite bound instead of inventing data.
func TestQuantileInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inf", "", []float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(1000) // all in +Inf
	}
	if got := r.Snapshot()[0].Hist.Quantile(0.5); got != 2 {
		t.Errorf("Quantile in +Inf bucket = %v, want clamp to 2", got)
	}
}

// TestSnapshotOrdering pins the consistency contract: metrics are read
// in registration order, so a downstream-registered-first counter pair
// can never snapshot with downstream > upstream.
func TestSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	// Pipeline increments upstream then downstream; register downstream
	// FIRST so the snapshot reads it before upstream.
	down := r.Counter("down_total", "")
	up := r.Counter("up_total", "")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				up.Inc()
				down.Inc()
			}
		}
	}()
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := r.Snapshot()
		if s[0].Name != "down_total" || s[1].Name != "up_total" {
			t.Fatalf("registration order not kept: %v, %v", s[0].Name, s[1].Name)
		}
		if s[0].Value > s[1].Value {
			t.Fatalf("down (%v) > up (%v): snapshot not pipeline-consistent", s[0].Value, s[1].Value)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentObserveSnapshot hammers a histogram and counters from
// many goroutines while snapshotting — run under -race in CI.
func TestConcurrentObserveSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	h := r.Histogram("lat", "", LatencyBuckets())

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%1000) * 1e-6)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			hv := r.Snapshot()[1].Hist
			if hv.Count != workers*perWorker {
				t.Fatalf("final count = %d, want %d", hv.Count, workers*perWorker)
			}
			if c.Value() != workers*perWorker {
				t.Fatalf("final counter = %d", c.Value())
			}
			return
		default:
			snaps := r.Snapshot()
			hv := snaps[1].Hist
			var sum uint64
			for _, n := range hv.Counts {
				sum += n
			}
			if sum != hv.Count {
				t.Fatalf("snapshot count %d != bucket sum %d", hv.Count, sum)
			}
		}
	}
}

// TestZeroAllocHotPath is the checked-in 0 allocs/op guard for the
// instrumentation hot path (see also the benchmarks below).
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", LatencyBuckets())
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123e-6) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v allocs/op, want 0", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_lat", "", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%4096) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_lat_par", "", LatencyBuckets())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(42e-6)
		}
	})
}
