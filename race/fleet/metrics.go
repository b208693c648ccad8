package fleet

import (
	"errors"
	"time"

	"repro/internal/obs"
)

// fleetMetrics is the router's slice of the obs registry. Every router owns
// one (a private registry is created when Options.Registry is nil), so the
// hot paths never nil-check.
//
// Naming follows the canonical catalog (README "Observability"): the
// fleet_ prefix, _total counters, _seconds histograms, and a backend label
// on per-backend series.
type fleetMetrics struct {
	migStarted   *obs.Counter
	migCompleted *obs.Counter
	migFailed    *obs.Counter
	redirects    *obs.Counter

	// What server.Front counts on the router's client connections, as
	// raced_conn_timeouts_total and raced_corrupt_frames_total do on raced's.
	connTimeouts  *obs.Counter
	corruptFrames *obs.Counter

	// Migration phase latencies: suspend (seal the source journal), copy
	// (stage + rename the session dir), recover (journal replay on the
	// target).
	migSuspend *obs.Histogram
	migCopy    *obs.Histogram
	migRecover *obs.Histogram

	// probeRTT is shared across backends (one histogram, not per-backend:
	// probe cadence is identical so per-backend quantiles add cardinality
	// without signal — outliers are attributed via fleet_probe_failures).
	probeRTT *obs.Histogram

	sessionsRouted map[string]*obs.Counter
	resumesRouted  map[string]*obs.Counter
	probeFailures  map[string]*obs.Counter

	// Failure-handling state machines: circuit-breaker trips and refusals,
	// and probe-earned recoveries (a high recovery rate is the flap signal).
	breakerOpens  map[string]*obs.Counter
	breakerShorts map[string]*obs.Counter
	recoveries    map[string]*obs.Counter
}

func newFleetMetrics(reg *obs.Registry, names []string) *fleetMetrics {
	m := &fleetMetrics{
		migStarted:   reg.Counter("fleet_migrations_started_total", "Session migrations begun (including in-place recoveries)."),
		migCompleted: reg.Counter("fleet_migrations_completed_total", "Session migrations that finished with the session recovered on its target."),
		migFailed:    reg.Counter("fleet_migrations_failed_total", "Session migrations abandoned with the source directory still authoritative."),
		redirects:    reg.Counter("fleet_redirects_total", "Redirect frames sent to streaming clients whose session moved or lost its backend."),

		connTimeouts:  reg.Counter("fleet_conn_timeouts_total", "Client connections cut by the router-side I/O deadline."),
		corruptFrames: reg.Counter("fleet_corrupt_frames_total", "Client frames rejected by the per-frame checksum."),

		migSuspend: reg.Histogram("fleet_migration_suspend_seconds", "Latency of suspending (sealing) a live session ahead of migration.", obs.LatencyBuckets()),
		migCopy:    reg.Histogram("fleet_migration_copy_seconds", "Latency of staging, fsyncing, and renaming a session directory onto its target backend.", obs.LatencyBuckets()),
		migRecover: reg.Histogram("fleet_migration_recover_seconds", "Latency of journal replay recovering a migrated session on its target.", obs.LatencyBuckets()),

		probeRTT: reg.Histogram("fleet_probe_rtt_seconds", "Round-trip time of backend health probes.", obs.LatencyBuckets()),

		sessionsRouted: make(map[string]*obs.Counter, len(names)),
		resumesRouted:  make(map[string]*obs.Counter, len(names)),
		probeFailures:  make(map[string]*obs.Counter, len(names)),
		breakerOpens:   make(map[string]*obs.Counter, len(names)),
		breakerShorts:  make(map[string]*obs.Counter, len(names)),
		recoveries:     make(map[string]*obs.Counter, len(names)),
	}
	for _, name := range names {
		l := obs.L("backend", name)
		m.sessionsRouted[name] = reg.Counter("fleet_sessions_routed_total", "Fresh sessions placed on the backend.", l)
		m.resumesRouted[name] = reg.Counter("fleet_resumes_routed_total", "Session re-attachments landed on the backend.", l)
		m.probeFailures[name] = reg.Counter("fleet_probe_failures_total", "Failed health probes against the backend (total, not consecutive).", l)
		m.breakerOpens[name] = reg.Counter("fleet_breaker_opens_total", "Times the backend's circuit breaker tripped open on unreachable-class failures.", l)
		m.breakerShorts[name] = reg.Counter("fleet_breaker_short_circuits_total", "Calls refused fast because the backend's circuit was open.", l)
		m.recoveries[name] = reg.Counter("fleet_backend_recoveries_total", "Down-to-up transitions earned through consecutive good probes (a high rate means the backend is flapping).", l)
	}
	return m
}

// registerBackendUp adds the fleet_backend_up gauge for each backend once
// the health monitor exists (the gauge closes over live prober state).
func (m *fleetMetrics) registerBackendUp(reg *obs.Registry, names []string, h *healthMonitor) {
	for _, name := range names {
		name := name
		reg.GaugeFunc("fleet_backend_up", "1 while the backend is routable (probed up), else 0.",
			func() float64 {
				if h.routable(name) {
					return 1
				}
				return 0
			}, obs.L("backend", name))
	}
}

// probeHook folds one health-probe outcome into the registry. Wired into
// the health monitor's prober loop; admin-driven state changes (drain,
// markDown) are not probes and do not pass through here.
func (m *fleetMetrics) probeHook(name string, rtt time.Duration, err error) {
	m.probeRTT.ObserveDuration(rtt)
	if err != nil && !errors.Is(err, ErrBackendDraining) {
		m.probeFailures[name].Inc()
	}
}
