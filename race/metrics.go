package race

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// EngineMetrics instruments an Engine (or several — a raced server
// shares one across every session's engine) through an obs.Registry.
// Construct with NewEngineMetrics and install with WithMetrics.
//
// The hot-path cost is one atomic add per event counter, one timestamp
// pair per FeedBatch call, and (parallel engines) one atomic add per
// claim of a computation, of time the scheduler measures anyway; a nil
// *EngineMetrics disables everything, and conformance tests pin that
// enabling it does not change any report byte.
type EngineMetrics struct {
	reg    *obs.Registry
	prefix string

	feedBatch *obs.Histogram // <prefix>_feed_batch_seconds
	ringOcc   *obs.Histogram // <prefix>_ring_occupancy
	races     *obs.Counter   // <prefix>_races_total
	eventsFed *obs.Counter   // <prefix>_events_fed_total

	mu   sync.Mutex
	busy map[string]*atomic.Int64 // ns behind <prefix>_computation_busy_seconds_total{computation=...}, lazy
}

// NewEngineMetrics registers the engine metric family under the given
// name prefix (e.g. "raced_engine") and returns the handle to install
// with WithMetrics. Returns nil for a nil registry, which WithMetrics
// treats as "no instrumentation".
func NewEngineMetrics(reg *obs.Registry, prefix string) *EngineMetrics {
	if reg == nil {
		return nil
	}
	m := &EngineMetrics{reg: reg, prefix: prefix, busy: make(map[string]*atomic.Int64)}
	// races is incremented downstream of eventsFed (detection follows
	// feeding); registering it first keeps snapshots pipeline-consistent
	// (see the obs package comment).
	m.races = reg.Counter(prefix+"_races_total",
		"Dynamic races detected online, across all analyses.")
	m.eventsFed = reg.Counter(prefix+"_events_fed_total",
		"Events fed into the analysis engine.")
	m.feedBatch = reg.Histogram(prefix+"_feed_batch_seconds",
		"Wall time of one FeedBatch call (checker + retain + enqueue or analyze).",
		obs.LatencyBuckets())
	m.ringOcc = reg.Histogram(prefix+"_ring_occupancy",
		"Pipeline ring occupancy (batches the slowest computation has yet to apply) sampled at each flush.",
		obs.DepthBuckets())
	return m
}

// computationBusy returns the busy-time accumulator, in nanoseconds, of
// the named computation, registering its series on first use. Pipelines
// resolve the pointer once at start-up, so the lock is off the hot path;
// engines sharing the handle aggregate by computation name.
func (m *EngineMetrics) computationBusy(name string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ns := m.busy[name]
	if ns == nil {
		ns = new(atomic.Int64)
		m.busy[name] = ns
		m.reg.CounterFunc(m.prefix+"_computation_busy_seconds_total",
			"Time pipeline workers spent applying (timed) batches to each computation: a relation shared by its FT2/FTO/Unopt cells, or a SmartTrack cell.",
			func() float64 { return float64(ns.Load()) / 1e9 },
			obs.L("computation", name))
	}
	return ns
}

// WithMetrics installs engine instrumentation (see NewEngineMetrics).
// A nil handle is valid and means no instrumentation. Several engines
// may share one handle: counters then aggregate across them, which is
// exactly what a multi-session server wants (per-session series would
// make scrape cardinality grow with traffic).
func WithMetrics(m *EngineMetrics) Option {
	return func(c *engineConfig) { c.met = m }
}
