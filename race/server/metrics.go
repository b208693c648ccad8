package server

import (
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/race"
)

// metrics is the server's obs-backed instrumentation. Counter
// registration ORDER is load-bearing: the ingest pipeline increments
// enqueued → journaled → engine-fed → analyzed per batch, and
// Registry.Snapshot reads metrics in registration order, so registering
// the downstream counters first makes every scrape observe
// enqueued ≥ journaled ≥ engine-fed ≥ analyzed — an internally
// consistent view even mid-ingest.
type metrics struct {
	start time.Time

	// Ingest pipeline, registered downstream-first (see above).
	analyzed  *obs.Counter        // raced_events_analyzed_total
	eng       *race.EngineMetrics // raced_engine_* (shared by every session's engine)
	journaled *obs.Counter        // raced_events_journaled_total
	enqueued  *obs.Counter        // raced_events_enqueued_total

	batches   *obs.Counter
	races     *obs.Counter
	opened    *obs.Counter
	closed    *obs.Counter
	evicted   *obs.Counter
	rejected  [len(rejectReasons)]*obs.Counter
	failed    *obs.Counter
	suspended *obs.Counter // single-session suspends (migration sources)
	imported  *obs.Counter // single-session recoveries (migration targets)

	// Fault-path instrumentation. Disk faults split by provenance so a
	// chaos harness can assert its injected schedule fired without organic
	// faults muddying the count (and an operator can spot the reverse).
	ioFaultsInjected *obs.Counter // raced_io_faults_total{source="injected"}
	ioFaultsOrganic  *obs.Counter // raced_io_faults_total{source="organic"}
	quarantined      *obs.Counter // raced_sessions_quarantined_total
	connTimeouts     *obs.Counter // raced_conn_timeouts_total
	corruptFrames    *obs.Counter // raced_corrupt_frames_total

	queueDepth    *obs.Histogram // sampled at each Feed
	queueWait     *obs.Histogram // time a batch blocked on a full queue
	flushAck      *obs.Histogram // Flush enqueue → barrier ack
	journalAppend *obs.Histogram // write-ahead AppendBatch wall time

	store store.Metrics // rotation / recovery / fsync timings
}

// The reasons raced_sessions_rejected_total is split by (indices of
// metrics.rejected), so a scrape can tell admission-control
// backpressure (full, draining) from client mistakes (config, id_conflict)
// and disk degradation (io).
const (
	rejectFull       = iota // pool at MaxSessions
	rejectDraining          // server in drain mode
	rejectConfig            // bad session config (unknown analysis, …)
	rejectIDConflict        // requested id live, finished, or on disk
	rejectIO                // persistence init failed (degraded disk)
	rejectShutdown          // open raced server Close
)

// rejectReasons are the label values, in registration order.
var rejectReasons = [...]string{"full", "draining", "config", "id_conflict", "io", "shutdown"}

// init registers the server metric catalog. s is only captured by the
// gauge closures, which run at snapshot time.
func (m *metrics) init(reg *obs.Registry, s *Server) {
	m.analyzed = reg.Counter("raced_events_analyzed_total",
		"Events fully applied to their session's analyses.")
	m.eng = race.NewEngineMetrics(reg, "raced_engine")
	m.journaled = reg.Counter("raced_events_journaled_total",
		"Events committed past the write-ahead journal stage (a no-op pass-through on memory-only servers).")
	m.enqueued = reg.Counter("raced_events_enqueued_total",
		"Events accepted into session ingest queues.")

	m.batches = reg.Counter("raced_batches_total", "Event batches analyzed.")
	m.races = reg.Counter("raced_races_total", "Races reported online across all sessions.")
	m.opened = reg.Counter("raced_sessions_opened_total", "Sessions admitted.")
	m.closed = reg.Counter("raced_sessions_closed_total", "Sessions closed (including aborts; excluding evictions).")
	m.evicted = reg.Counter("raced_sessions_evicted_total", "Sessions evicted after the idle timeout.")
	const rejectedHelp = "Session opens rejected, by reason (admission control, bad config, id conflicts, degraded disk)."
	for i, reason := range rejectReasons {
		m.rejected[i] = reg.Counter("raced_sessions_rejected_total", rejectedHelp, obs.L("reason", reason))
	}
	m.failed = reg.Counter("raced_sessions_failed_total", "Sessions terminated by an ingestion or analysis error.")
	m.suspended = reg.Counter("raced_sessions_suspended_total", "Single-session suspends (migration sources).")
	m.imported = reg.Counter("raced_sessions_imported_total", "Single-session recoveries (migration targets).")

	m.ioFaultsInjected = reg.Counter("raced_io_faults_total",
		"Journal/metadata I/O failures attributed to fault injection.", obs.L("source", "injected"))
	m.ioFaultsOrganic = reg.Counter("raced_io_faults_total",
		"Journal/metadata I/O failures from the real disk.", obs.L("source", "organic"))
	m.quarantined = reg.Counter("raced_sessions_quarantined_total",
		"Sessions whose journal was quarantined after a disk fault.")
	m.connTimeouts = reg.Counter("raced_conn_timeouts_total",
		"Wire connections cut by the server-side I/O deadline.")
	m.corruptFrames = reg.Counter("raced_corrupt_frames_total",
		"Wire frames rejected by the per-frame checksum.")

	reg.GaugeFunc("raced_sessions_active", "Live sessions.",
		func() float64 { return float64(s.ActiveSessions()) })
	reg.GaugeFunc("raced_uptime_seconds", "Seconds since the server started.",
		func() float64 { return s.cfg.now().Sub(m.start).Seconds() })

	m.queueDepth = reg.Histogram("raced_ingest_queue_depth",
		"Session ingest-queue occupancy sampled at each accepted batch.", obs.DepthBuckets())
	m.queueWait = reg.Histogram("raced_ingest_queue_wait_seconds",
		"Time an accepted batch blocked on a full session ingest queue before enqueue (0 when a slot was free).", obs.LatencyBuckets())
	m.flushAck = reg.Histogram("raced_flush_ack_seconds",
		"Flush-barrier latency: enqueue to ack (journal fsync + engine sync behind queued work).", obs.LatencyBuckets())
	m.journalAppend = reg.Histogram("raced_journal_append_seconds",
		"Write-ahead journal AppendBatch wall time.", obs.LatencyBuckets())
	m.store = store.Metrics{
		RotationSeconds: reg.Histogram("raced_store_rotation_seconds",
			"Journal segment rotation (seal + fsync + next-segment start).", obs.LatencyBuckets()),
		RecoverySeconds: reg.Histogram("raced_store_recovery_seconds",
			"Journal recovery scan at open (CRC verify + torn-tail truncate).", obs.LatencyBuckets()),
		SyncSeconds: reg.Histogram("raced_journal_fsync_seconds",
			"Journal Sync (flush + fsync) inside flush barriers.", obs.LatencyBuckets()),
	}
}
