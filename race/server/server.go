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
//	race/server          session manager: admission control, idle
//	                     eviction, panic isolation, metrics
//	race                 one race.Engine per session (any Table 1 fan-out)
//	internal/wire        framed transport shared with the client
//
// Sessions are isolated: each engine runs on the goroutine of the one
// driver that holds its session, which reads its next frame only once its
// last batch is applied (a slow analysis backpressures only its own
// connection), and an analysis panic poisons only its session — it is
// recovered into the session's sticky error while the server keeps serving
// every other tenant.
//
// What can go wrong, and what each party does about it, is one table
// (errors.go): wire code, local sentinel, HTTP status, report label, the
// holder's recovery and the journal's fate per condition, read by every
// layer through Classify.
package server

import (
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
	"repro/race"
)

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// MaxSessions bounds concurrently open sessions (admission control);
	// OpenSession returns ErrServerFull beyond it. Default 64.
	MaxSessions int
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
	// it is served — the network fault-injection seam (chaos.ConnFaults).
	// The wrapper sits under the I/O deadline layer, so injected stalls
	// are subject to IOTimeout like organic ones.
	WrapConn func(net.Conn) net.Conn
	// Tracer records per-request span trees (journal append,
	// fsync, engine feed, flush barrier, recovery replay), stitching them
	// to client traces through wire and HTTP trace context. Nil disables
	// tracing; every instrumentation point is nil-safe and allocation-free
	// when disabled.
	Tracer *tracing.Tracer

	// now and newSink are test seams.
	now     func() time.Time
	newSink func(cfg SessionConfig, onRace func(race.RaceInfo), journaled bool) (engineSink, error)
}

const (
	defaultMaxSessions = 64
	defaultIdleTimeout = 5 * time.Minute
)

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

// New builds a Server and starts its idle-eviction janitor (unless eviction
// is disabled). Call Close to stop it.
func New(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = defaultMaxSessions
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
		engMet := s.metrics.eng
		s.cfg.newSink = func(sc SessionConfig, onRace func(race.RaceInfo), journaled bool) (engineSink, error) {
			return newEngineSink(sc, onRace, journaled, engMet)
		}
	}
	if cfg.IdleTimeout > 0 {
		s.stopJanitor = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s
}

// OpenSession admits a new tenant: it builds the configured engine and
// returns the session. ErrServerFull applies admission
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

// open admits a session under the caller's id, or under a server-assigned
// one when id is empty.
func (s *Server) open(id string, cfg SessionConfig) (*Session, error) {
	if id == "" {
		return s.OpenSession(cfg)
	}
	return s.OpenSessionWithID(id, cfg)
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
	if isAutoID(id) {
		return fmt.Errorf("server: session id %q is reserved for server-assigned ids (s<digits>)", id)
	}
	return nil
}

// ValidateResumeID reports whether id can name an existing session: a valid
// caller-chosen id or a server-assigned one — the grammar RecoverSession
// enforces before an id becomes a path under the data dir.
func ValidateResumeID(id string) error {
	if isAutoID(id) {
		return nil
	}
	return ValidateSessionID(id)
}

func (s *Server) openSession(reqID string, cfg SessionConfig, persist bool) (*Session, error) {
	// reject counts a refused open by reason and discards the engine, once
	// one is built (reaping a parallel engine's worker goroutines).
	var sink engineSink
	reject := func(reason int, err error) (*Session, error) {
		if sink != nil {
			abortSink(sink)
		}
		s.metrics.rejected[reason].Add(1)
		return nil, err
	}
	// Cheap precheck so hopeless opens skip engine construction.
	s.mu.Lock()
	closed, draining, full := s.closed, s.draining, len(s.sessions) >= s.cfg.MaxSessions
	s.mu.Unlock()
	switch {
	case closed:
		return nil, ErrServerClosed
	case draining:
		return reject(rejectDraining, ErrDraining)
	case full:
		return reject(rejectFull, ErrServerFull)
	}

	sess := &Session{cfg: cfg, srv: s}
	journaled := persist && s.cfg.DataDir != ""
	sink, err := s.cfg.newSink(cfg, sess.onRace, journaled)
	if err != nil {
		s.metrics.rejected[rejectConfig].Add(1)
		return nil, err
	}
	sess.sink = sink

	// Reserve an id first (ids are labels; a rejected open burning one is
	// harmless), then build the session's persistence before publishing:
	// a session in the table always has its journal and engine set, so
	// shutdown and eviction never observe a half-initialized tenant.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return reject(rejectShutdown, ErrServerClosed)
	}
	if reqID != "" {
		_, live := s.sessions[reqID]
		_, fin := s.finished[reqID]
		if live || fin || s.pendingIDs[reqID] {
			s.mu.Unlock()
			return reject(rejectIDConflict, fmt.Errorf("%w: %s", ErrIDTaken, reqID))
		}
		// Reserve the id across the unlocked persistence build, or two
		// concurrent opens of the same id would both pass the check and
		// share one journal directory.
		s.pendingIDs[reqID] = true
		sess.ID = reqID
		defer func() {
			s.mu.Lock()
			delete(s.pendingIDs, reqID)
			s.mu.Unlock()
		}()
	} else {
		s.nextID++
		sess.ID = fmt.Sprintf("s%06d", s.nextID)
	}
	s.mu.Unlock()

	if journaled {
		// A requested id must also be free on disk: a stale session
		// directory under the same name would make persistInit append this
		// tenant's stream onto a dead session's leftover journal.
		if reqID != "" {
			if _, err := s.fsys().Stat(filepath.Join(s.sessionsRoot(), reqID)); err == nil {
				return reject(rejectIDConflict, fmt.Errorf("%w (on disk): %s", ErrIDTaken, reqID))
			}
		}
		if err := sess.persistInit(); err != nil {
			return reject(rejectIO, err)
		}
	}

	// Re-check admission — the sink and journal were built outside the
	// lock — and discard both if we lost the race.
	s.mu.Lock()
	if closed, full = s.closed, len(s.sessions) >= s.cfg.MaxSessions; closed || full {
		s.mu.Unlock()
		sess.discardPersist()
		if closed {
			return reject(rejectShutdown, ErrServerClosed)
		}
		return reject(rejectFull, ErrServerFull)
	}
	sess.lastActive = s.cfg.now()
	s.sessions[sess.ID] = sess
	s.mu.Unlock()

	s.metrics.opened.Add(1)
	return sess, nil
}

// Session returns the open (or closing) session with the given id.
func (s *Server) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Sessions lists every live and retained-finished session with its state,
// event count, and races so far — the GET /sessions view.
func (s *Server) Sessions() []SessionStatus {
	s.mu.Lock()
	all := make([]*Session, 0, len(s.sessions)+len(s.finished))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	live := len(all)
	for _, sess := range s.finished {
		all = append(all, sess)
	}
	s.mu.Unlock()
	out := make([]SessionStatus, len(all))
	for i, sess := range all {
		out[i] = sess.status(i < live)
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

// SuspendSession quiesces one live durable session for migration: a batch
// in flight finishes, the journal is synced and sealed, and the session leaves the live table — on disk it stays "open",
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
// Prometheus scrape of GET /metrics reads.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

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
	recovering := s.recovering
	s.mu.Unlock()
	if recovering {
		return 0
	}
	n := 0
	for _, sess := range s.live() {
		sess.mu.Lock()
		idle := sess.lastActive.Before(cutoff)
		sess.mu.Unlock()
		if idle && sess.abort(ErrEvicted) {
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

// live snapshots the live table.
func (s *Server) live() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	return live
}

// Close shuts the server down: no new sessions are admitted, every live
// session is aborted, and the janitor stops.
func (s *Server) Close() error {
	s.stop(func(sess *Session) { sess.abort(ErrServerClosed) })
	return nil
}

// stop is the one way down, for Close and Shutdown: admission ends, every
// live session is ended by end, and the janitor stops. On a session already
// closing, end returns once that close is complete — report, persistence
// and all — so it finishes before the process exits.
func (s *Server) stop(end func(*Session)) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, sess := range s.live() {
		end(sess)
	}
	if s.stopJanitor != nil {
		close(s.stopJanitor)
		<-s.janitorDone
	}
}
