// Package server turns the race detection library into a multi-tenant
// service: a Server owns one streaming race.Engine per session, so many
// instrumented programs can stream their traces concurrently to a shared
// detector and query the resulting reports over the network — the paper's
// "always-on detection in deployed settings" operated as infrastructure
// rather than a library call.
//
// The layering:
//
//	cmd/raced            HTTP + raw-TCP front ends (this package's
//	                     Handler and ServeTCP), flags, lifecycle
//	race/server          session manager: admission control, per-session
//	                     ingest queues with backpressure, idle eviction,
//	                     panic isolation, metrics
//	race                 one race.Engine per session (any Table 1 fan-out)
//	internal/wire        framed transport shared with the client
//
// Sessions are isolated: every engine runs behind a dedicated feeder
// goroutine with a bounded work queue (a slow analysis backpressures only
// its own connection), and an analysis panic poisons only its session — the
// feeder recovers it into the session's sticky error while the server keeps
// serving every other tenant.
//
// What can go wrong, and what each party does about it, is one table
// (errors.go): wire code, local sentinel, HTTP status, report label, the
// holder's recovery and the journal's fate per condition, read by every
// layer through Classify.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/store"
	"repro/race"
)

// SessionConfig is a client's requested engine configuration — the payload
// of the wire protocol's Hello frame and of POST /sessions.
type SessionConfig struct {
	// Analyses lists Table 1 analyses by display name (see race.Detectors).
	// Empty runs the engine's default, SmartTrack-WDC.
	Analyses []string `json:"analyses,omitempty"`
	// Vindicate makes the session's engine retain the stream and vindicate
	// detected races at close (memory proportional to the stream).
	Vindicate bool `json:"vindicate,omitempty"`
	// Parallelism and BatchSize configure the engine's worker pipeline
	// (race.WithParallelism / race.WithBatchSize).
	Parallelism int `json:"parallelism,omitempty"`
	BatchSize   int `json:"batch_size,omitempty"`
	// Hints pre-size detector state for the session's expected id spaces.
	Hints race.CapacityHints `json:"hints,omitzero"`
}

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// MaxSessions bounds concurrently open sessions (admission control);
	// OpenSession returns ErrServerFull beyond it. Default 64.
	MaxSessions int
	// QueueDepth is each session's pending-batch queue length. A full queue
	// blocks that session's producer (its connection), never the server:
	// per-session backpressure. Default 32.
	QueueDepth int
	// IdleTimeout evicts sessions that have not ingested anything for this
	// long (their engines close, the final report is discarded). Zero means
	// the default of 5 minutes; negative disables eviction.
	IdleTimeout time.Duration
	// DataDir makes sessions durable: every session journals its ingested
	// events to a racelog under <DataDir>/sessions/<id>/ before they reach
	// the engine, flush barriers sync the journal, and a restarted process
	// rebuilds open sessions from their journals (Recover) — see
	// journal.go. Empty keeps sessions purely in memory.
	DataDir string
	// Registry receives the server's metrics (see the canonical catalog
	// in the repository README). Nil creates a private registry,
	// reachable through Server.Registry. A registry must not be shared
	// by two Servers — metric names would collide.
	Registry *obs.Registry
	// Logger receives the server's structured logs. Nil uses
	// slog.Default().
	Logger *slog.Logger
	// FS is the filesystem the server's own persistence (session metadata,
	// reports, quarantine moves) runs on, and the one handed to each
	// session's journal racelog. Nil means the real filesystem (fault.OS).
	// Fault-injection harnesses substitute an instrumented FS to exercise
	// the disk-fault degradation policy end to end.
	FS fault.FS
	// IOTimeout bounds every read and write on a wire connection served by
	// ServeTCP: each I/O refreshes the deadline, so only a connection that
	// stalls completely for this long is cut (CodeTimeout). Zero disables
	// deadlines.
	IOTimeout time.Duration
	// WrapConn, when non-nil, wraps every accepted wire connection before
	// it is served — the network fault-injection seam (fault.WrapConn).
	// The wrapper sits under the I/O deadline layer, so injected stalls
	// are subject to IOTimeout like organic ones.
	WrapConn func(net.Conn) net.Conn
	// Tracer records per-request span trees (enqueue, journal append,
	// fsync, engine feed, flush barrier, recovery replay), stitching them
	// to client traces through wire and HTTP trace context. Nil disables
	// tracing; every instrumentation point is nil-safe and allocation-free
	// when disabled.
	Tracer *tracing.Tracer

	// now and newSink are test seams.
	now     func() time.Time
	newSink func(SessionConfig, func(race.RaceInfo)) (engineSink, error)
}

const (
	defaultMaxSessions = 64
	defaultQueueDepth  = 32
	defaultIdleTimeout = 5 * time.Minute
)

// engineSink is the slice of race.EventSink a session drives (plus Abort,
// the discard path); *race.Engine implements it, and tests substitute
// poisoned sinks through Config.newSink.
type engineSink interface {
	FeedBatch([]race.Event) error
	Sync() error
	Close() (*race.Report, error)
	Abort()
}

// Server is the multi-tenant session manager.
type Server struct {
	cfg Config

	mu         sync.Mutex
	sessions   map[string]*Session
	pendingIDs map[string]bool // requested ids reserved mid-open
	nextID     uint64
	closed     bool
	draining   bool // Drain called: no new sessions, existing ones live on
	recovering bool // Recover in progress: idle eviction is paused
	degraded   bool // a session hit a disk fault; /healthz reports it

	// finished retains the last maxFinished terminated sessions so their
	// reports (or terminal errors) stay queryable over the report API
	// after close — GET /sessions/{id}/races keeps working once the
	// session no longer occupies a pool slot.
	finished      map[string]*Session
	finishedOrder []string

	stopJanitor chan struct{}
	janitorDone chan struct{}

	metrics metrics
}

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
	rejected  rejectedCounters
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

// rejectedCounters splits raced_sessions_rejected_total by reason so a
// load harness can tell admission-control backpressure (full, draining)
// from client mistakes (config, id_conflict) and disk degradation (io).
type rejectedCounters struct {
	full       *obs.Counter // pool at MaxSessions
	draining   *obs.Counter // server in drain mode
	config     *obs.Counter // bad session config (unknown analysis, …)
	idConflict *obs.Counter // requested id live, finished, or on disk
	io         *obs.Counter // persistence init failed (degraded disk)
	shutdown   *obs.Counter // open raced server Close
}

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
	m.rejected = rejectedCounters{
		full:       reg.Counter("raced_sessions_rejected_total", rejectedHelp, obs.L("reason", "full")),
		draining:   reg.Counter("raced_sessions_rejected_total", rejectedHelp, obs.L("reason", "draining")),
		config:     reg.Counter("raced_sessions_rejected_total", rejectedHelp, obs.L("reason", "config")),
		idConflict: reg.Counter("raced_sessions_rejected_total", rejectedHelp, obs.L("reason", "id_conflict")),
		io:         reg.Counter("raced_sessions_rejected_total", rejectedHelp, obs.L("reason", "io")),
		shutdown:   reg.Counter("raced_sessions_rejected_total", rejectedHelp, obs.L("reason", "shutdown")),
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

// New builds a Server and starts its idle-eviction janitor (unless eviction
// is disabled). Call Close to stop it.
func New(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = defaultMaxSessions
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = defaultIdleTimeout
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.FS == nil {
		cfg.FS = fault.OS{}
	}
	s := &Server{
		cfg:        cfg,
		sessions:   make(map[string]*Session),
		pendingIDs: make(map[string]bool),
		finished:   make(map[string]*Session),
	}
	s.metrics.start = cfg.now()
	s.metrics.init(cfg.Registry, s)
	if s.cfg.newSink == nil {
		dataDir := cfg.DataDir
		engMet := s.metrics.eng
		s.cfg.newSink = func(sc SessionConfig, onRace func(race.RaceInfo)) (engineSink, error) {
			return newEngineSink(sc, onRace, dataDir, engMet)
		}
	}
	if cfg.IdleTimeout > 0 {
		s.stopJanitor = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s
}

// Caps on client-supplied capacity hints. Hints only pre-size state —
// engines grow on demand past them — so clamping costs a tenant nothing,
// while an unclamped hint would let one Hello frame pre-allocate
// gigabytes (or panic on a negative count) in the shared server.
const (
	maxHintThreads = 1 << 16 // Tid is uint16; larger is meaningless
	maxHintIDs     = 1 << 20 // vars / locks / volatiles / classes
	maxHintEvents  = 1 << 24 // constraint-graph pre-sizing
)

// clampHints bounds every client-supplied pre-sizing hint.
func clampHints(h race.CapacityHints) race.CapacityHints {
	clamp := func(v, max int) int {
		if v < 0 {
			return 0
		}
		return min(v, max)
	}
	return race.CapacityHints{
		Threads:   clamp(h.Threads, maxHintThreads),
		Vars:      clamp(h.Vars, maxHintIDs),
		Locks:     clamp(h.Locks, maxHintIDs),
		Volatiles: clamp(h.Volatiles, maxHintIDs),
		Classes:   clamp(h.Classes, maxHintIDs),
		Events:    clamp(h.Events, maxHintEvents),
	}
}

// newEngineSink builds the session's real engine from its config. On a
// durable server a vindicating engine also gets a spill: the journal
// already holds every event on disk, so letting the engine retain the
// whole stream in RAM a second time would defeat the larger-than-memory
// story — past the default threshold its retention moves to a scratch
// racelog under <dataDir>/spill (removed at engine Close/Abort).
func newEngineSink(cfg SessionConfig, onRace func(race.RaceInfo), dataDir string, met *race.EngineMetrics) (engineSink, error) {
	opts := []race.Option{
		race.WithCapacityHints(clampHints(cfg.Hints)),
		race.WithOnRace(onRace),
		race.WithMetrics(met),
	}
	if len(cfg.Analyses) > 0 {
		opts = append(opts, race.WithAnalysisNames(cfg.Analyses...))
	}
	if cfg.Vindicate {
		opts = append(opts, race.WithVindication())
		if dataDir != "" {
			opts = append(opts, race.WithSpill(filepath.Join(dataDir, "spill"), 0))
		}
	}
	if cfg.Parallelism > 1 {
		opts = append(opts, race.WithParallelism(cfg.Parallelism), race.WithBatchSize(cfg.BatchSize))
	}
	return race.NewEngine(opts...)
}

// OpenSession admits a new tenant: it builds the configured engine, starts
// its feeder, and returns the session. ErrServerFull applies admission
// control; bad configurations (unknown analysis names, N/A cells) surface
// as engine construction errors. On a durable server the session persists
// (journal + metadata) — openSession with persist=false serves callers
// whose session never outlives the request (one-shot /ingest).
func (s *Server) OpenSession(cfg SessionConfig) (*Session, error) {
	return s.openSession("", cfg, true)
}

// OpenSessionWithID opens a session under a caller-chosen id instead of a
// server-assigned one — the seam a fleet router needs: placement by
// consistent hashing only works if the id that is hashed is the id every
// backend stores the session under. The id must be valid (see
// ValidateSessionID) and free, both in this process and on disk.
func (s *Server) OpenSessionWithID(id string, cfg SessionConfig) (*Session, error) {
	if err := ValidateSessionID(id); err != nil {
		return nil, err
	}
	return s.openSession(id, cfg, true)
}

// maxSessionIDLen bounds caller-chosen session ids (they become directory
// names under the data dir).
const maxSessionIDLen = 64

// ValidateSessionID reports whether id is acceptable as a caller-chosen
// session id: 1–64 characters of [A-Za-z0-9._-], no leading dot (dot
// prefixes are reserved for in-progress imports), and not of the
// server-assigned form s<digits> (a router id colliding with the auto
// counter would splice two tenants' streams).
func ValidateSessionID(id string) error {
	if id == "" || len(id) > maxSessionIDLen {
		return fmt.Errorf("server: session id must be 1–%d characters, got %d", maxSessionIDLen, len(id))
	}
	if id[0] == '.' {
		return fmt.Errorf("server: session id %q may not start with a dot", id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-'
		if !ok {
			return fmt.Errorf("server: session id %q contains %q (want [A-Za-z0-9._-])", id, c)
		}
	}
	reserved := len(id) > 1 && id[0] == 's'
	for i := 1; reserved && i < len(id); i++ {
		reserved = id[i] >= '0' && id[i] <= '9'
	}
	if reserved {
		return fmt.Errorf("server: session id %q is reserved for server-assigned ids (s<digits>)", id)
	}
	return nil
}

func (s *Server) openSession(reqID string, cfg SessionConfig, persist bool) (*Session, error) {
	// Cheap precheck so hopeless opens skip engine construction.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejected.draining.Add(1)
		return nil, ErrDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.metrics.rejected.full.Add(1)
		return nil, ErrServerFull
	}
	s.mu.Unlock()

	sess := &Session{
		cfg:   cfg,
		srv:   s,
		work:  make(chan workItem, s.cfg.QueueDepth),
		done:  make(chan struct{}),
		slabs: newSlabs(),
	}
	sink, err := s.cfg.newSink(cfg, sess.onRace)
	if err != nil {
		s.metrics.rejected.config.Add(1)
		return nil, err
	}

	// Reserve an id first (ids are labels; a rejected open burning one is
	// harmless), then build the session's persistence before publishing:
	// a session in the table always has its journal set and a live feeder
	// about to start, so shutdown and eviction never observe a
	// half-initialized tenant.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		abortSafe(sink)
		s.metrics.rejected.shutdown.Add(1)
		return nil, ErrServerClosed
	}
	if reqID != "" {
		_, live := s.sessions[reqID]
		_, fin := s.finished[reqID]
		if live || fin || s.pendingIDs[reqID] {
			s.mu.Unlock()
			abortSafe(sink)
			s.metrics.rejected.idConflict.Add(1)
			return nil, fmt.Errorf("%w: %s", ErrIDTaken, reqID)
		}
		// Reserve the id across the unlocked persistence build, or two
		// concurrent opens of the same id would both pass the check and
		// share one journal directory.
		s.pendingIDs[reqID] = true
		sess.ID = reqID
	} else {
		s.nextID++
		sess.ID = fmt.Sprintf("s%06d", s.nextID)
	}
	s.mu.Unlock()
	if reqID != "" {
		defer func() {
			s.mu.Lock()
			delete(s.pendingIDs, reqID)
			s.mu.Unlock()
		}()
	}

	// A requested id must also be free on disk: a stale session directory
	// under the same name would make persistInit append this tenant's
	// stream onto a dead session's leftover journal.
	if reqID != "" && persist && s.cfg.DataDir != "" {
		if _, err := s.fsys().Stat(filepath.Join(s.sessionsRoot(), reqID)); err == nil {
			abortSafe(sink)
			s.metrics.rejected.idConflict.Add(1)
			return nil, fmt.Errorf("%w (on disk): %s", ErrIDTaken, reqID)
		}
	}

	if persist && s.cfg.DataDir != "" {
		if err := sess.persistInit(); err != nil {
			abortSafe(sink)
			s.metrics.rejected.io.Add(1)
			return nil, err
		}
	}

	// Re-check admission — the sink and journal were built outside the
	// lock — and discard both if we lost the race.
	s.mu.Lock()
	if s.closed || len(s.sessions) >= s.cfg.MaxSessions {
		closed := s.closed
		s.mu.Unlock()
		sess.discardPersist()
		abortSafe(sink) // reap a parallel engine's worker goroutines
		if closed {
			s.metrics.rejected.shutdown.Add(1)
			return nil, ErrServerClosed
		}
		s.metrics.rejected.full.Add(1)
		return nil, ErrServerFull
	}
	sess.lastActive = s.cfg.now()
	s.sessions[sess.ID] = sess
	s.mu.Unlock()

	s.metrics.opened.Add(1)
	go sess.run(sink)
	return sess, nil
}

// Session returns the open (or closing) session with the given id.
func (s *Server) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// SessionStatus is one row of the GET /sessions listing.
type SessionStatus struct {
	ID string `json:"id"`
	// State is "streaming" (live), "finished" (closed with a report), or
	// "failed" (terminal error: aborted, evicted, poisoned).
	State string `json:"state"`
	// Events is the number of events the session's engine has consumed.
	Events uint64 `json:"events"`
	// Races counts the races reported so far (live: online detections;
	// finished: the report's dynamic count).
	Races    int      `json:"races"`
	Analyses []string `json:"analyses,omitempty"`
}

// Sessions lists every live and retained-finished session with its state,
// event count, and races so far — the GET /sessions view.
func (s *Server) Sessions() []SessionStatus {
	s.mu.Lock()
	all := make([]*Session, 0, len(s.sessions)+len(s.finished))
	live := make(map[string]bool, len(s.sessions))
	for id, sess := range s.sessions {
		all = append(all, sess)
		live[id] = true
	}
	for _, sess := range s.finished {
		all = append(all, sess)
	}
	s.mu.Unlock()
	out := make([]SessionStatus, 0, len(all))
	for _, sess := range all {
		sess.mu.Lock()
		st := SessionStatus{
			ID:       sess.ID,
			Events:   sess.fed,
			Races:    len(sess.online),
			Analyses: sess.cfg.Analyses,
		}
		switch {
		case live[sess.ID]:
			if sess.err != nil {
				st.State = "failed"
			} else {
				st.State = "streaming"
			}
		case sess.err != nil:
			st.State = "failed"
		default:
			st.State = "finished"
			if sess.report != nil {
				st.Races = sess.report.Dynamic()
			}
		}
		sess.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveSessions returns the number of live sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// MaxSessions returns the admission-control session cap.
func (s *Server) MaxSessions() int { return s.cfg.MaxSessions }

// DataDir returns the durable-session root ("" for a memory-only server).
func (s *Server) DataDir() string { return s.cfg.DataDir }

// fsys returns the filesystem persistence runs on (Config.FS, defaulted).
func (s *Server) fsys() fault.FS { return s.cfg.FS }

// Degraded reports whether any session has hit a disk fault since start.
// A degraded server keeps serving — the fault policy isolates the failed
// session — but /healthz surfaces the flag so operators (and chaos
// harnesses) see that the disk misbehaved.
func (s *Server) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// QuarantinedSessions returns how many sessions had their journals
// quarantined after disk faults.
func (s *Server) QuarantinedSessions() uint64 {
	return s.metrics.quarantined.Value()
}

// noteIOFault records one journal/metadata I/O failure, attributing it to
// the injection harness or the real disk, and marks the server degraded.
func (s *Server) noteIOFault(err error) {
	if fault.Injected(err) {
		s.metrics.ioFaultsInjected.Add(1)
	} else {
		s.metrics.ioFaultsOrganic.Add(1)
	}
	s.mu.Lock()
	s.degraded = true
	s.mu.Unlock()
}

// Drain stops admitting new sessions while leaving existing ones running —
// the first half of taking a backend out of a fleet: the router sees the
// drain through /healthz (503) and stops routing fresh sessions here, then
// migrates the live ones at its own pace. Drain is idempotent and cannot
// be undone short of a restart.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether Drain was called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SuspendSession quiesces one live durable session for migration: pending
// batches drain into the journal and engine, the journal is synced and
// sealed, and the session leaves the live table — on disk it stays "open",
// so whichever server next holds the directory resumes it at the accepted
// offset. It returns the journaled event count. Only durable sessions can
// be suspended (a memory-only session has no journal to carry its state).
func (s *Server) SuspendSession(id string) (uint64, error) {
	sess, ok := s.Session(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	if sess.jlog == nil {
		return 0, fmt.Errorf("server: session %s is not durable; nothing to suspend", id)
	}
	if !sess.suspend() {
		return 0, ErrSessionClosed
	}
	s.metrics.suspended.Add(1)
	return sess.Fed(), nil
}

// Registry returns the server's metrics registry — the full catalog a
// Prometheus scrape or a racemon collector reads.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// Tracer returns the server's span tracer (nil when tracing is off) so
// front ends can mount /debug/traces and daemons can share it.
func (s *Server) Tracer() *tracing.Tracer { return s.cfg.Tracer }

// janitor periodically evicts idle sessions.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(s.cfg.IdleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case <-tick.C:
			s.EvictIdle(s.cfg.now())
		}
	}
}

// EvictIdle closes every session idle since before now−IdleTimeout and
// returns how many it evicted. The janitor calls it periodically; tests
// call it directly.
func (s *Server) EvictIdle(now time.Time) int {
	if s.cfg.IdleTimeout <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.IdleTimeout)
	s.mu.Lock()
	if s.recovering {
		s.mu.Unlock()
		return 0
	}
	var idle []*Session
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if sess.lastActive.Before(cutoff) {
			idle = append(idle, sess)
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	n := 0
	for _, sess := range idle {
		if sess.abort(ErrEvicted) {
			s.metrics.evicted.Add(1)
			n++
		}
	}
	return n
}

// maxFinished bounds how many terminated sessions (and their reports)
// the server retains for the report API.
const maxFinished = 128

// remove moves a terminated session from the live table to the bounded
// finished archive.
func (s *Server) remove(sess *Session) {
	s.mu.Lock()
	delete(s.sessions, sess.ID)
	s.archiveLocked(sess)
	s.mu.Unlock()
}

// archiveLocked pushes a terminated session into the bounded finished
// archive; the caller holds s.mu. Recovery uses it directly for sessions
// that were never in this process's live table.
func (s *Server) archiveLocked(sess *Session) {
	s.finished[sess.ID] = sess
	s.finishedOrder = append(s.finishedOrder, sess.ID)
	if len(s.finishedOrder) > maxFinished {
		delete(s.finished, s.finishedOrder[0])
		s.finishedOrder = s.finishedOrder[1:]
	}
}

// Finished returns a terminated session from the archive.
func (s *Server) Finished(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.finished[id]
	return sess, ok
}

// Close shuts the server down: no new sessions are admitted, every live
// session is aborted, and the janitor stops.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, sess := range live {
		sess.abort(ErrServerClosed)
	}
	if s.stopJanitor != nil {
		close(s.stopJanitor)
		<-s.janitorDone
	}
	return nil
}

// workItem is one unit on a session's ingest queue: an event batch, or a
// flush barrier whose ack is sent once everything before it has been
// applied.
type workItem struct {
	events []race.Event
	// recycle marks events as one of the session's slabs: the feeder hands
	// it back (putSlab) once journal and engine are done with the batch.
	recycle bool
	ack     chan error
	// trace is the span context the feeder parents its journal/engine
	// spans under: the enqueue span for a batch, the flush span for a
	// barrier. Zero when tracing is off or no context reached the session.
	trace tracing.SpanContext
}

// Session is one tenant: an engine plus the feeder goroutine and queue
// that isolate it from every other tenant. With a durable server
// (Config.DataDir) the session also owns an on-disk directory and journal
// racelog (see journal.go).
type Session struct {
	ID  string
	cfg SessionConfig
	srv *Server

	// dir and jlog are the session's persistence arm (nil/"" without a
	// DataDir). The journal is written only by the feeder goroutine.
	dir  string
	jlog *store.Log

	// ingestMu serializes producers (Feed/Flush/Close/abort) so nothing
	// sends on a closed work channel.
	ingestMu sync.Mutex
	closing  bool
	work     chan workItem
	done     chan struct{} // feeder exited; report/err final

	// slabs is the free list of event slabs that front ends decode into
	// (takeSlab/putSlab): exactly two tokens circulate, so one batch is
	// decoded while the feeder works on the previous one and steady-state
	// ingest allocates nothing. A token starts empty and grows to the
	// largest batch seen.
	slabs chan []race.Event

	mu         sync.Mutex
	lastActive time.Time
	fed        uint64
	enqueued   uint64 // events accepted into the queue (≥ fed)
	online     []race.RaceInfo
	report     *race.Report
	err        error
	suspended  bool                // graceful shutdown: feeder preserves the journal
	attached   bool                // a wire connection or HTTP mutation currently drives this session
	traceCtx   tracing.SpanContext // default parent for ingest spans (the driving connection's span)
}

// SetTraceContext records the span context driving this session — the
// wire connection's span (serveConn) or an in-process fleet backend's
// route span — as the default parent for ingest spans when a request
// carries no context of its own.
func (sess *Session) SetTraceContext(sc tracing.SpanContext) {
	sess.mu.Lock()
	sess.traceCtx = sc
	sess.mu.Unlock()
}

// startSpan opens a child span named name under parent, falling back to
// the session's connection-level context. Nil (free) when tracing is off.
func (sess *Session) startSpan(name string, parent tracing.SpanContext) *tracing.Span {
	tr := sess.srv.cfg.Tracer
	if tr == nil {
		return nil
	}
	if !parent.Valid() {
		sess.mu.Lock()
		parent = sess.traceCtx
		sess.mu.Unlock()
	}
	sp := tr.Child(name, parent)
	sp.SetAttr("session", sess.ID)
	return sp
}

// onRace collects online detections; it runs on the feeder goroutine (or
// the engine pipeline's drainer), never concurrently with itself.
func (sess *Session) onRace(ri race.RaceInfo) {
	sess.mu.Lock()
	sess.online = append(sess.online, ri)
	sess.mu.Unlock()
	sess.srv.metrics.races.Add(1)
}

// run is the feeder: it drains the work queue — journaling each batch
// before the engine sees it on a durable server — recovering panics into
// the session's sticky error, and closes the engine when the queue
// closes. It is the only goroutine that touches the engine (and the
// journal), which is what makes one poisoned engine unable to take down
// the server.
func (sess *Session) run(sink engineSink) {
	defer close(sess.done)
	for item := range sess.work {
		if item.ack != nil {
			// Flush barrier: first make everything journaled so far
			// durable, then wait for the engine to apply it (on a parallel
			// engine batches are still in flight on worker rings). The ack
			// then really means "everything before this point is analyzed
			// and survives a crash".
			if sess.Err() == nil && sess.jlog != nil {
				jsp := sess.startSpan("raced.journal.fsync", item.trace)
				err := sess.jlog.Sync()
				jsp.SetError(err)
				jsp.End()
				if err != nil {
					if sess.fail(fmt.Errorf("%w: syncing journal: %w", ErrDiskFault, err)) {
						sess.srv.metrics.failed.Add(1)
						sess.srv.noteIOFault(err)
					}
				}
			}
			if sess.Err() == nil {
				esp := sess.startSpan("raced.engine.sync", item.trace)
				err := syncSafe(sink)
				esp.SetError(err)
				esp.End()
				if err != nil && sess.fail(err) {
					sess.srv.metrics.failed.Add(1)
				}
			}
			item.ack <- sess.Err()
			continue
		}
		// A poisoned session drains and discards, so producers never block.
		if sess.Err() == nil {
			sess.ingest(sink, item)
		}
		if item.recycle {
			sess.putSlab(item.events)
		}
	}
	if sess.isSuspended() {
		// Graceful shutdown: seal the journal (Close syncs it) and discard
		// only the engine — on disk the session stays "open" so the next
		// process resumes it from the journal.
		if sess.jlog != nil {
			sess.jlog.Close()
		}
		abortSafe(sink)
		return
	}
	if err := sess.Err(); err != nil {
		// Aborted, evicted, or already poisoned: nobody will read a report,
		// so discard the engine instead of paying Close (which, for a
		// vindicating engine, replays the whole retained stream).
		abortSafe(sink)
		if sess.jlog != nil {
			sess.jlog.Close()
			switch Classify(err).Fate {
			case Quarantine:
				sess.quarantine()
			case MarkAborted:
				sess.persistState(stateAborted, sess.Fed())
			}
		}
		return
	}
	rep, cerr := closeSafe(sink)
	if cerr != nil && sess.fail(cerr) {
		sess.srv.metrics.failed.Add(1)
	}
	sess.mu.Lock()
	if sess.err == nil {
		sess.report = rep
	}
	sess.mu.Unlock()
	if sess.jlog != nil {
		sess.jlog.Close()
		if rep != nil && sess.Err() == nil {
			if err := sess.persistReport(rep); err == nil {
				sess.persistState(stateClosed, sess.Fed())
			}
			// On a failed report write the state stays "open": the sealed
			// journal regenerates the identical report after a restart,
			// which beats discarding a recoverable result.
			return
		}
		sess.persistState(stateAborted, sess.Fed())
	}
}

// ingest applies one batch on the feeder goroutine: journal, then engine.
func (sess *Session) ingest(sink engineSink, item workItem) {
	// Write-ahead: the journal sees the batch before the engine, so a
	// crash can lose unjournaled analysis work but never journal an
	// event the engine might not have seen on replay.
	if sess.jlog != nil {
		jsp := sess.startSpan("raced.journal.append", item.trace)
		jsp.SetInt("events", int64(len(item.events)))
		t0 := time.Now()
		err := sess.jlog.AppendBatch(item.events)
		sess.srv.metrics.journalAppend.ObserveDuration(time.Since(t0))
		jsp.SetError(err)
		jsp.End()
		if err != nil {
			if sess.fail(fmt.Errorf("%w: journaling batch: %w", ErrDiskFault, err)) {
				sess.srv.metrics.failed.Add(1)
				sess.srv.noteIOFault(err)
			}
			return
		}
	}
	sess.srv.metrics.journaled.Add(uint64(len(item.events)))
	asp := sess.startSpan("raced.engine.analyze", item.trace)
	asp.SetInt("events", int64(len(item.events)))
	if err := feedSafe(sink, item.events); err != nil {
		asp.SetError(err)
		asp.End()
		if sess.fail(err) {
			sess.srv.metrics.failed.Add(1)
		}
		return
	}
	asp.End()
	sess.srv.metrics.analyzed.Add(uint64(len(item.events)))
	sess.srv.metrics.batches.Add(1)
	sess.mu.Lock()
	sess.fed += uint64(len(item.events))
	sess.mu.Unlock()
}

// isSuspended reports whether graceful shutdown quiesced this session.
func (sess *Session) isSuspended() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.suspended
}

// feedSafe feeds one batch, converting an analysis panic into an error.
func feedSafe(sink engineSink, evs []race.Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: analysis panicked: %v", r)
		}
	}()
	return sink.FeedBatch(evs)
}

// closeSafe closes the engine, converting a panic into an error.
func closeSafe(sink engineSink) (rep *race.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("server: analysis panicked at close: %v", r)
		}
	}()
	return sink.Close()
}

// abortSafe discards the engine, swallowing panics (the session is already
// failed; there is nothing further to poison).
func abortSafe(sink engineSink) {
	defer func() { recover() }()
	sink.Abort()
}

// syncSafe runs the engine's barrier, converting a panic into an error.
func syncSafe(sink engineSink) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: analysis panicked at sync: %v", r)
		}
	}()
	return sink.Sync()
}

// fail records the session's first error, reporting whether this call set
// it (so callers count each failure exactly once).
func (sess *Session) fail(err error) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.err != nil {
		return false
	}
	sess.err = err
	return true
}

// Err returns the session's sticky error, if any.
func (sess *Session) Err() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.err
}

// closedErr names why a closing session rejects new work. A suspended
// session answers ErrSuspended — the caller is holding a stale handle to a
// session that was handed off (migration, graceful shutdown) and can resume
// it elsewhere; a failed one answers its sticky error; a cleanly closing
// one answers ErrSessionClosed. suspend sets the suspended flag before the
// closing flag, so any observer of closing sees the right classification.
func (sess *Session) closedErr() error {
	if sess.isSuspended() {
		return ErrSuspended
	}
	if err := sess.Err(); err != nil {
		return err
	}
	return ErrSessionClosed
}

// Fed returns the number of events the session's engine has consumed.
func (sess *Session) Fed() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.fed
}

// Races returns a snapshot of the races detected so far, in delivery
// order — the live view GET /sessions/{id}/races serves while the session
// is still streaming.
func (sess *Session) Races() []race.RaceInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return append([]race.RaceInfo(nil), sess.online...)
}

// touch refreshes the idle-eviction clock.
func (sess *Session) touch() {
	now := sess.srv.cfg.now()
	sess.mu.Lock()
	sess.lastActive = now
	sess.mu.Unlock()
}

// Feed enqueues one event batch. It blocks while the session's queue is
// full — per-session backpressure that propagates to the producing
// connection and no further. The batch is owned by the session afterwards.
// A sticky ingestion error is returned immediately (the batch is dropped),
// but full error reporting is Flush's and Close's job.
func (sess *Session) Feed(events []race.Event) error {
	return sess.FeedCtx(tracing.SpanContext{}, events)
}

// FeedCtx is Feed with an explicit trace parent (an HTTP request span or
// wire connection span); the enqueue span and the feeder's journal/engine
// spans for this batch parent under it. A zero parent falls back to the
// session's connection-level context.
func (sess *Session) FeedCtx(parent tracing.SpanContext, events []race.Event) error {
	return sess.feed(parent, events, false)
}

// maxSlabEvents bounds the slabs a session keeps: a frame past it (1.5 MiB
// of records; clients ship 2048-event frames by default) is decoded into a
// one-off buffer instead of pinning that much per session.
const maxSlabEvents = 1 << 17

func newSlabs() chan []race.Event {
	slabs := make(chan []race.Event, 2)
	slabs <- nil
	slabs <- nil
	return slabs
}

// takeSlab takes one of the session's two event slabs, waiting for the
// feeder to finish with one when both are in flight. Whoever takes a slab
// hands it (or the grown slab that replaced it) back exactly once: feed
// with recycle set does so on every path, putSlab otherwise.
func (sess *Session) takeSlab() []race.Event {
	slab := <-sess.slabs
	select {
	case other := <-sess.slabs:
		// Both are free: work in the one already grown (and cache-warm). The
		// second grows only once batches overlap — a client that waits for
		// every flush ack never makes it.
		if cap(other) > cap(slab) {
			slab, other = other, slab
		}
		sess.slabs <- other
	default:
	}
	return slab
}

// putSlab returns a slab to the free list.
func (sess *Session) putSlab(slab []race.Event) {
	if cap(slab) > maxSlabEvents {
		slab = nil
	}
	sess.slabs <- slab[:0]
}

// feed enqueues one batch. With recycle set, events is a slab from takeSlab
// and goes back to the free list when the feeder is done with it — or here,
// when the batch is refused.
func (sess *Session) feed(parent tracing.SpanContext, events []race.Event, recycle bool) error {
	refuse := func(err error) error {
		if recycle {
			sess.putSlab(events)
		}
		return err
	}
	if len(events) == 0 {
		return refuse(sess.Err())
	}
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	if sess.closing {
		return refuse(sess.closedErr())
	}
	if err := sess.Err(); err != nil {
		return refuse(err)
	}
	sess.touch()
	sp := sess.startSpan("raced.enqueue", parent)
	sp.SetInt("events", int64(len(events)))
	sp.SetInt("queue_depth", int64(len(sess.work)))
	// Counter before send: once the batch is in the channel the feeder
	// may journal and analyze it at any moment, and the pipeline
	// invariant (enqueued ≥ journaled ≥ analyzed) must hold under any
	// interleaving with a scrape.
	sess.srv.metrics.enqueued.Add(uint64(len(events)))
	sess.srv.metrics.queueDepth.Observe(float64(len(sess.work)))
	item := workItem{events: events, recycle: recycle, trace: sp.Context()}
	select {
	case sess.work <- item:
		// Free slot: record a zero wait so the histogram's count matches
		// accepted batches and the blocked fraction is count-above-zero.
		sess.srv.metrics.queueWait.Observe(0)
	default:
		// Queue full: this send is the per-session backpressure stall the
		// load harness correlates with client flush-ack p99.
		start := sess.srv.cfg.now()
		sess.work <- item
		sess.srv.metrics.queueWait.ObserveDuration(sess.srv.cfg.now().Sub(start))
	}
	sess.mu.Lock()
	sess.enqueued += uint64(len(events))
	sess.mu.Unlock()
	sp.End()
	return nil
}

// Enqueued returns the number of events the session has accepted into its
// queue — the offset a resuming client must continue from (everything
// before it will reach the engine; Fed trails it only by queued work).
func (sess *Session) Enqueued() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.enqueued
}

// attach claims the session for one driver — a wire connection for its
// lifetime, or an HTTP mutation request for its duration; at most one
// drives a session at a time, keeping the journaled stream a single
// client's view.
func (sess *Session) attach() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.attached {
		return ErrBusy
	}
	sess.attached = true
	return nil
}

// detach releases the wire-connection claim.
func (sess *Session) detach() {
	sess.mu.Lock()
	sess.attached = false
	sess.mu.Unlock()
}

// Attach claims the session for one external driver (ErrBusy if another
// holds it) — the exported seam an in-process fleet backend uses to get the
// same one-feeder-at-a-time exclusivity a wire connection gets.
func (sess *Session) Attach() error { return sess.attach() }

// Detach releases an Attach claim.
func (sess *Session) Detach() { sess.detach() }

// Flush is the sync barrier: it returns once every previously fed batch has
// been applied to the session's analyses, reporting any ingestion error.
func (sess *Session) Flush() error {
	return sess.FlushCtx(tracing.SpanContext{})
}

// FlushCtx is Flush with an explicit trace parent — the client's flush
// span carried in the wire Flush frame, or an HTTP request span — so the
// barrier's journal-fsync and engine-sync spans join the caller's trace.
func (sess *Session) FlushCtx(parent tracing.SpanContext) error {
	sess.ingestMu.Lock()
	if sess.closing {
		sess.ingestMu.Unlock()
		return sess.closedErr()
	}
	sess.touch()
	sp := sess.startSpan("raced.flush", parent)
	t0 := time.Now()
	ack := make(chan error, 1)
	sess.work <- workItem{ack: ack, trace: sp.Context()}
	sess.ingestMu.Unlock()
	err := <-ack
	sess.srv.metrics.flushAck.ObserveDuration(time.Since(t0))
	sp.SetError(err)
	sp.End()
	return err
}

// Close ends the stream: pending batches drain, the engine closes, and the
// final report is returned (with vindication verdicts if configured). Close
// is idempotent; after it, the session no longer counts against the
// server's session limit.
func (sess *Session) Close() (*race.Report, error) {
	sess.ingestMu.Lock()
	first := !sess.closing
	if first {
		sess.closing = true
		close(sess.work)
	}
	sess.ingestMu.Unlock()
	<-sess.done
	if first {
		sess.srv.remove(sess)
		sess.srv.metrics.closed.Add(1)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.report, sess.err
}

// abort closes the session with a preset error (eviction, shutdown,
// connection loss), discarding the report. It reports whether this call
// performed the abort. Non-eviction aborts count toward the closed
// metric so opened == closed + evicted + active stays an invariant
// (evictions are counted by EvictIdle).
func (sess *Session) abort(cause error) bool {
	sess.ingestMu.Lock()
	if sess.closing {
		sess.ingestMu.Unlock()
		return false
	}
	sess.fail(cause)
	sess.closing = true
	close(sess.work)
	sess.ingestMu.Unlock()
	<-sess.done
	sess.srv.remove(sess)
	if !errors.Is(cause, ErrEvicted) {
		sess.srv.metrics.closed.Add(1)
	}
	return true
}
