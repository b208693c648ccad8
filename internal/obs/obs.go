// Package obs is the repo-wide telemetry core: a dependency-free
// metrics registry with named counters, gauges, and fixed-bucket
// latency histograms, plus a self-contained Prometheus text-exposition
// encoder/parser and slog helpers.
//
// Design constraints, in order:
//
//  1. The hot path must not perturb the system being measured.
//     Counter.Add and Histogram.Observe are single-word atomic
//     operations with zero heap allocations (guarded by a checked-in
//     benchmark) and no locks.
//  2. A scrape must be internally consistent for pipelined counters.
//     Snapshot reads metrics in registration order, so a pipeline that
//     increments A then B then C per item registers C first and A last:
//     any interleaving of reads then observes A ≥ B ≥ C.
//  3. No dependencies. The Prometheus exposition (text format v0.0.4)
//     is written and parsed by this package, not client_golang.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types in a Snapshot.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is a single name="value" pair attached to a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing uint64. Safe for concurrent
// use; Add and Inc are single atomic adds (0 allocs/op).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// MetricSnapshot is one metric at one point in time.
type MetricSnapshot struct {
	Name   string
	Help   string
	Labels []Label
	Kind   Kind
	Value  float64         // counter and gauge kinds
	Hist   *HistogramValue // histogram kind only
}

// entry is one registered metric.
type entry struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	counter   *Counter
	gaugeFunc func() float64 // GaugeFunc or CounterFunc
	hist      *Histogram
}

func (e *entry) key() string {
	if len(e.labels) == 0 {
		return e.name
	}
	var b strings.Builder
	b.WriteString(e.name)
	for _, l := range e.labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// Registry holds named metrics and produces ordered snapshots.
//
// Registration is mutex-guarded and may allocate; it happens at
// construction time, not on the hot path. Reading (Snapshot) takes the
// same mutex only to copy the entry list, then loads each metric's
// atomics in registration order — see the package comment for why the
// order is part of the contract.
type Registry struct {
	mu    sync.Mutex
	order []*entry
	byKey map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

func (r *Registry) register(e *entry) {
	if r == nil {
		panic("obs: register on nil Registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := e.key()
	if _, dup := r.byKey[k]; dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", k))
	}
	r.byKey[k] = e
	r.order = append(r.order, e)
}

// Counter registers and returns a new counter. Panics on a duplicate
// name+labels registration. By Prometheus convention the name should
// end in "_total".
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&entry{name: name, help: help, labels: labels, kind: KindCounter, counter: c})
	return c
}

// GaugeFunc registers a gauge — a value that can go up and down — computed by fn at
// snapshot time. fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&entry{name: name, help: help, labels: labels, kind: KindGauge, gaugeFunc: fn})
}

// CounterFunc registers a counter whose value is computed by fn at
// snapshot time — for monotonic totals kept in another unit than the one
// exposed (nanoseconds behind a _seconds_total). fn must be monotonic and
// safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&entry{name: name, help: help, labels: labels, kind: KindCounter, gaugeFunc: fn})
}

// Histogram registers and returns a new histogram with the given
// upper bounds (must be sorted ascending; an implicit +Inf bucket is
// always appended).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := newHistogram(bounds)
	r.register(&entry{name: name, help: help, labels: labels, kind: KindHistogram, hist: h})
	return h
}

// Snapshot reads every registered metric, in registration order, and
// returns the values. The result is safe to retain and serialize.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	entries := make([]*entry, len(r.order))
	copy(entries, r.order)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		s := MetricSnapshot{Name: e.name, Help: e.help, Labels: e.labels, Kind: e.kind}
		switch {
		case e.counter != nil:
			s.Value = float64(e.counter.Value())
		case e.gaugeFunc != nil:
			s.Value = e.gaugeFunc()
		case e.hist != nil:
			s.Hist = e.hist.value()
		}
		out = append(out, s)
	}
	return out
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets is the canonical bound set for duration histograms:
// log-spaced ×2 from 1µs to ~4.2s (23 buckets + implicit +Inf).
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 23) }

// DepthBuckets is the canonical bound set for queue-depth and
// occupancy histograms: log-spaced ×2 from 1 to 4096.
func DepthBuckets() []float64 { return ExpBuckets(1, 2, 13) }

// sortedCheck validates histogram bounds at construction.
func sortedCheck(bounds []float64) {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted ascending")
	}
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
	}
}
