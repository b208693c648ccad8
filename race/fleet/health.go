package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Backend health states as the router's prober sees them.
const (
	stateUp       int32 = iota // routable: takes new sessions
	stateDraining              // reachable (admin, existing sessions) but not routable
	stateDown                  // failed probeThreshold consecutive probes, or marked down
)

func stateName(s int32) string {
	switch s {
	case stateUp:
		return "up"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// DefaultProbeInterval is the health-probe period when unconfigured.
const DefaultProbeInterval = 2 * time.Second

// probeThreshold consecutive failed probes take a backend down.
const probeThreshold = 2

// Flap damping: a backend that went down must string together
// probeThreshold consecutive good probes before it takes traffic again — and a
// backend that has bounced recently (flapTrips recoveries inside the last
// flapWindow probes) must produce flapPenalty times that, so a flapping
// backend converges to a stable "down" instead of oscillating sessions on and
// off the ring. The window is counted in probes, not seconds (30 rounds is a
// minute at DefaultProbeInterval), so recovery is a function of what the
// probes saw, not of how fast the machine ran.
const (
	flapWindow  = 30
	flapTrips   = 2
	flapPenalty = 4
)

// probeRecord is one backend's health as maintained by the monitor. Routing
// reads state without a lock; every write — a probe's observe, a failed
// call's markDown — holds mu for its whole read-modify-write, so a good
// probe that raced a mark-down cannot store "up" over it.
type probeRecord struct {
	state atomic.Int32

	mu          sync.Mutex
	probes      uint64 // probes observed: the clock flap damping reads
	consecFails int
	consecOKs   int      // good probes since going down
	recoveries  []uint64 // probe numbers of down→up transitions inside flapWindow
}

// flappingLocked reports whether the backend has recovered repeatedly
// within the damping window.
func (rec *probeRecord) flappingLocked() bool {
	cut := 0
	for cut < len(rec.recoveries) && rec.probes-rec.recoveries[cut] > flapWindow {
		cut++
	}
	rec.recoveries = rec.recoveries[cut:]
	return len(rec.recoveries) >= flapTrips
}

// healthMonitor probes every backend's Healthz on a fixed interval, and
// whenever Router.Probe asks. A Backend call that could not reach its
// backend also marks it down at once (markDown, from Router.called) instead
// of waiting out the probe threshold.
type healthMonitor struct {
	interval time.Duration
	healthz  func(ctx context.Context, name string) error // the health RPC
	records  map[string]*probeRecord

	// onProbe, when set before start, observes every probe's RTT and
	// outcome (metrics). Synthetic state changes — markDown, admin
	// drain — do not pass through it.
	onProbe func(name string, rtt time.Duration, err error)

	// onRecover, when set before start, observes every down→up transition
	// (the flap metric).
	onRecover func(name string)

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// newHealthMonitor returns a monitor over names whose probe runs healthz
// (bounded by ctx).
func newHealthMonitor(names []string, interval time.Duration, healthz func(ctx context.Context, name string) error) *healthMonitor {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	h := &healthMonitor{
		interval: interval,
		healthz:  healthz,
		records:  make(map[string]*probeRecord, len(names)),
		stop:     make(chan struct{}),
	}
	for _, name := range names {
		h.records[name] = &probeRecord{} // optimistically up until probed
	}
	return h
}

// start launches one prober goroutine per backend, which probes on every
// tick (not at start: a backend dead at boot is marked down by the first
// call that fails to reach it).
func (h *healthMonitor) start() {
	for name := range h.records {
		h.wg.Add(1)
		go func(name string) {
			defer h.wg.Done()
			t := time.NewTicker(h.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					h.probe(context.Background(), name)
				case <-h.stop:
					return
				}
			}
		}(name)
	}
}

// probe runs one backend's health RPC and folds the result into its state:
// a tick's whole work, and one backend's share of Router.Probe.
func (h *healthMonitor) probe(ctx context.Context, name string) {
	h.observe(name, h.runProbe(ctx, name))
}

func (h *healthMonitor) runProbe(ctx context.Context, name string) error {
	ctx, cancel := context.WithTimeout(ctx, h.interval)
	defer cancel()
	t0 := time.Now()
	err := h.healthz(ctx, name)
	if h.onProbe != nil {
		h.onProbe(name, time.Since(t0), err)
	}
	return err
}

// observe folds one probe result into the backend's state machine. A down
// backend does not recover on a single good probe: it must earn its way
// back with consecutive successes (see the flap-damping constants), so a
// backend bouncing at probe frequency sheds traffic instead of thrashing it.
func (h *healthMonitor) observe(name string, err error) {
	if h.records[name].observe(err) && h.onRecover != nil {
		h.onRecover(name)
	}
}

// observe folds one probe result into the record and reports whether it
// brought the backend back up.
func (rec *probeRecord) observe(err error) (recovered bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.probes++
	switch {
	case err == nil:
		rec.consecFails = 0
		if rec.state.Load() != stateDown {
			rec.consecOKs = 0
			rec.state.Store(stateUp)
			return false
		}
		need := probeThreshold
		if rec.flappingLocked() {
			need *= flapPenalty
		}
		if rec.consecOKs++; rec.consecOKs < need {
			return false
		}
		rec.consecOKs = 0
		rec.state.Store(stateUp)
		rec.recoveries = append(rec.recoveries, rec.probes)
		return true
	case errors.Is(err, ErrBackendDraining):
		rec.consecFails, rec.consecOKs = 0, 0
		rec.state.Store(stateDraining)
	default:
		rec.consecOKs = 0
		if rec.consecFails++; rec.consecFails >= probeThreshold {
			rec.state.Store(stateDown)
		}
	}
	return false
}

func (h *healthMonitor) close() {
	h.once.Do(func() { close(h.stop) })
	h.wg.Wait()
}

// routable reports whether new sessions may land on the backend.
func (h *healthMonitor) routable(name string) bool {
	rec, ok := h.records[name]
	return ok && rec.state.Load() == stateUp
}

// reachable reports whether the backend answers at all (up or draining) —
// existing sessions and admin operations may still target it.
func (h *healthMonitor) reachable(name string) bool {
	rec, ok := h.records[name]
	return ok && rec.state.Load() != stateDown
}

// markDown records an observed hard failure without waiting for probes;
// Router.called, through which every Backend call's error passes, is its
// one caller.
func (h *healthMonitor) markDown(name string) {
	if rec, ok := h.records[name]; ok {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		rec.state.Store(stateDown)
		rec.consecFails, rec.consecOKs = probeThreshold, 0
	}
}

func (h *healthMonitor) status(name string) string {
	rec, ok := h.records[name]
	if !ok {
		return "unknown"
	}
	return stateName(rec.state.Load())
}
