package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs/tracing"
	"repro/internal/store"
	"repro/race"
)

// Durable sessions. With Config.DataDir set, every session owns a
// directory under <DataDir>/sessions/<id>/:
//
//	session.json    sessionMeta: the session's engine config and state
//	journal/        a racelog (package store) of every ingested event,
//	                appended by the feeder *before* the engine sees the
//	                batch (write-ahead), synced at each flush barrier
//	report.json     the canonical report JSON, written at clean close
//
// The lifecycle on disk:
//
//	open ──────► closed   (clean close: report.json written first)
//	  │
//	  └────────► aborted  (evicted, client abort, poisoned stream)
//
// A server restart calls Recover: "open" sessions are rebuilt by replaying
// their journal into a fresh engine and re-enter the live table at the
// journal's recovered offset, so a wire client can resume at the acked
// offset; "closed" sessions re-enter the finished archive with their
// persisted report, so the report API keeps answering across restarts.
// Graceful shutdown (Shutdown) leaves sessions "open": it drains each
// queue, syncs and seals the journal, and discards only the in-memory
// engine — the journal is the source of truth.

// Session state values persisted in session.json.
const (
	stateOpen    = "open"
	stateClosed  = "closed"
	stateAborted = "aborted"
)

// sessionMeta is the session.json document.
type sessionMeta struct {
	ID     string        `json:"id"`
	Config SessionConfig `json:"config"`
	State  string        `json:"state"`
	// Events is the journaled event count at the last state transition
	// (informational; the journal itself is authoritative while open).
	Events uint64 `json:"events,omitempty"`
}

// sessionsRoot returns <DataDir>/sessions.
func (s *Server) sessionsRoot() string {
	return filepath.Join(s.cfg.DataDir, "sessions")
}

// writeJSONFile atomically replaces path with the JSON encoding of v:
// write to a temp file, fsync it, rename. The fsync-before-rename keeps
// an OS crash from leaving the rename durable but the contents torn —
// state transitions (and reports) must never be half-written.
func writeJSONFile(fsys fault.FS, path string, v any) error {
	doc, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	// The rename itself lives in the parent directory's entries; without
	// this fsync a power loss could keep the old file despite the ack.
	return fsys.SyncDir(filepath.Dir(path))
}

// persistInit creates the session's on-disk identity: directory, journal,
// and "open" metadata. Called once the session has its server-assigned id,
// before its feeder starts. A failure is an ErrDiskFault and removes what
// was built, so the id is free again on disk and no boot finds a leftover.
func (sess *Session) persistInit() error {
	fsys := sess.srv.fsys()
	dir := filepath.Join(sess.srv.sessionsRoot(), sess.ID)
	fail := func(jlog *store.Log, what string, err error) error {
		if jlog != nil {
			jlog.Close()
		}
		fsys.RemoveAll(dir)
		return fmt.Errorf("%w: %s: %w", ErrDiskFault, what, err)
	}
	jlog, err := store.Open(filepath.Join(dir, "journal"),
		store.Options{Metrics: &sess.srv.metrics.store, FS: fsys})
	if err != nil {
		return fail(nil, "opening session journal", err)
	}
	if err := writeJSONFile(fsys, filepath.Join(dir, "session.json"),
		sessionMeta{ID: sess.ID, Config: sess.cfg, State: stateOpen}); err != nil {
		return fail(jlog, "writing session metadata", err)
	}
	// Durability of the acked flush includes the session directory tree
	// existing at all: fsync the newly created directory chain up to the
	// data dir, or a power loss could erase the whole session while its
	// journal's bytes were safely synced.
	for _, d := range []string{dir, sess.srv.sessionsRoot(), sess.srv.cfg.DataDir} {
		if err := fsys.SyncDir(d); err != nil {
			return fail(jlog, "syncing session directories", err)
		}
	}
	sess.dir = dir
	sess.jlog = jlog
	return nil
}

// discardPersist removes a session's on-disk identity — the cleanup for
// an open that built its journal but then lost the admission race.
func (sess *Session) discardPersist() {
	if sess.jlog == nil {
		return
	}
	sess.jlog.Close()
	sess.srv.fsys().RemoveAll(sess.dir)
	sess.jlog, sess.dir = nil, ""
}

// quarantine moves a disk-faulted session's directory to
// <DataDir>/quarantine/<id>: out of the sessions root, so a restart can
// never resurrect a journal whose durability promises were broken, but
// preserved on disk for the operator. Best-effort — the disk is already
// misbehaving — with a rename-only fallback path kept as simple as
// possible. Called from feeder teardown after the journal is closed.
func (sess *Session) quarantine() {
	if sess.dir == "" {
		return
	}
	fsys := sess.srv.fsys()
	qroot := filepath.Join(sess.srv.cfg.DataDir, "quarantine")
	err := fsys.MkdirAll(qroot, 0o777)
	if err == nil {
		err = fsys.Rename(sess.dir, filepath.Join(qroot, sess.ID))
	}
	if err != nil {
		// Could not move it (the disk may be fully wedged): mark the state
		// aborted if possible so recovery at least refuses to resume it.
		sess.srv.cfg.Logger.Error("quarantine failed; marking session aborted",
			"session", sess.ID, "err", err)
		sess.persistState(stateAborted, sess.Fed())
	}
	sess.srv.metrics.quarantined.Add(1)
	sess.srv.cfg.Logger.Warn("session quarantined after disk fault",
		"session", sess.ID, "err", sess.Err())
}

// persistState rewrites session.json with a terminal state. Best-effort:
// called from feeder teardown, where there is nobody left to report to.
func (sess *Session) persistState(state string, events uint64) {
	if sess.dir == "" {
		return
	}
	_ = writeJSONFile(sess.srv.fsys(), filepath.Join(sess.dir, "session.json"),
		sessionMeta{ID: sess.ID, Config: sess.cfg, State: state, Events: events})
}

// persistReport writes the canonical report JSON at clean close —
// atomically and fsynced, because the session flips to "closed" right
// after, and a "closed" session with a torn report would lose a result
// its (about-to-be-final) journal could have regenerated.
func (sess *Session) persistReport(rep *race.Report) error {
	return writeJSONFile(sess.srv.fsys(), filepath.Join(sess.dir, "report.json"), rep)
}

// replayChunk is the batch size journal replay feeds the fresh engine.
const replayChunk = 4096

// Recover scans DataDir for sessions a previous process left behind and
// rebuilds them: "open" sessions replay their journal (recovered to its
// durable prefix — the torn tail a crash left is truncated) into a fresh
// engine and rejoin the live table, resumable at the journal offset;
// "closed" sessions rejoin the finished archive with their persisted
// report. It returns how many live sessions were resumed. Call it once,
// after New and before serving traffic.
//
// Recovered live sessions are admitted even if they exceed MaxSessions —
// the operator asked for a restart, not an eviction storm; the cap applies
// to new admissions.
func (s *Server) Recover() (int, error) {
	if s.cfg.DataDir == "" {
		return 0, nil
	}
	root := s.sessionsRoot()
	entries, err := s.fsys().ReadDir(root)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	// Hold the idle janitor off while journals replay: with many (or
	// large) journals the total replay can outlast IdleTimeout, and
	// evicting a session moments after resurrecting it would defeat the
	// resume-after-restart contract. Every recovered session's idle clock
	// restarts when recovery finishes.
	s.mu.Lock()
	s.recovering = true
	s.mu.Unlock()
	defer func() {
		for _, sess := range s.live() {
			sess.touch()
		}
		s.mu.Lock()
		s.recovering = false
		s.mu.Unlock()
	}()
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		// Dot-prefixed directories are in-progress imports (a fleet
		// migration copies into ".importing-<id>" and renames): half-copied
		// state must never be resurrected as a session.
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	// Boot-time recovery is its own span tree: one root for the scan, one
	// child per session replayed (each with its journal-replay span), so a
	// slow restart shows which journal the time went to.
	rsp := s.cfg.Tracer.Root("raced.recover", tracing.SpanContext{})
	rsp.SetInt("session_dirs", int64(len(names)))
	defer rsp.End()
	resumed := 0
	for _, name := range names {
		// Advance the id counter past every session directory, readable
		// or not: a dir whose session.json a crash never wrote must still
		// never have its id (== its name) reassigned — a new tenant
		// reusing it would splice the dead session's leftover journal
		// into its own stream.
		s.noteRecoveredID(name)
		state, err := s.recoverDir(rsp.Context(), name)
		if err != nil {
			// One unrecoverable session (unreadable leftovers, a config this
			// binary no longer accepts, a journal I/O error) must not
			// crash-loop the whole service: skip it, leave its directory
			// untouched for the operator, and keep recovering the rest.
			s.cfg.Logger.Warn("session not recovered, left on disk", "session", name, "err", err)
		} else if state == stateOpen {
			resumed++
		}
	}
	return resumed, nil
}

// recoverDir is the per-directory step of recovery, at boot and on demand,
// and returns the state the directory was in: an "open" session replays its
// journal and joins the live table, resumable at the journal offset; a
// "closed" one joins the finished archive with its report; any other is
// left alone.
func (s *Server) recoverDir(parent tracing.SpanContext, id string) (state string, err error) {
	dir := filepath.Join(s.sessionsRoot(), id)
	meta, err := readSessionMeta(s.fsys(), dir)
	if err != nil {
		return "", err
	}
	if meta.ID != id {
		return "", fmt.Errorf("server: session dir %s holds metadata for %q", dir, meta.ID)
	}
	switch meta.State {
	case stateClosed:
		s.recoverFinished(dir, meta)
	case stateOpen:
		err = s.recoverOpen(parent, dir, meta)
	}
	return meta.State, err
}

// RecoverSession loads one session directory that appeared under the data
// dir after boot — the target half of a fleet migration: the router copies
// a sealed session directory (journal + metadata) into this server's
// sessions root, then asks it to recover just that id. ctx carries the
// router's migrate span — through the recover admin request's traceparent,
// or straight from an in-process Local backend — making the target-side
// replay part of the same migration tree.
func (s *Server) RecoverSession(ctx context.Context, id string) error {
	if s.cfg.DataDir == "" {
		return errors.New("server: no data dir; nothing to recover from")
	}
	if err := ValidateResumeID(id); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	_, live := s.sessions[id]
	husk, fin := s.finished[id]
	if fin && husk.isSuspended() {
		// A suspended session is not terminal — recovery is exactly how it
		// comes back to life (the same-server suspend/recover round trip,
		// or a migration returning home). Drop the husk from the archive
		// so the recovered session can own the id again; its stale entry
		// in finishedOrder trims as a no-op.
		delete(s.finished, id)
		fin = false
	}
	s.mu.Unlock()
	if live || fin {
		return fmt.Errorf("%w: %s", ErrIDTaken, id)
	}
	s.noteRecoveredID(id)
	switch state, err := s.recoverDir(tracing.FromContext(ctx), id); {
	case err != nil:
		return err
	case state == stateOpen:
		s.metrics.imported.Add(1)
	case state != stateClosed:
		return fmt.Errorf("server: session %s is %q; only open or closed sessions recover", id, state)
	}
	return nil
}

// isAutoID reports whether id has the server-assigned form s<digits> —
// RecoverSession must accept those (migrations move server-named sessions
// too) even though callers cannot request them at open.
func isAutoID(id string) bool {
	if len(id) < 2 || id[0] != 's' {
		return false
	}
	for i := 1; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return false
		}
	}
	return true
}

func readSessionMeta(fsys fault.FS, dir string) (sessionMeta, error) {
	doc, err := fsys.ReadFile(filepath.Join(dir, "session.json"))
	if err != nil {
		return sessionMeta{}, err
	}
	var meta sessionMeta
	if err := json.Unmarshal(doc, &meta); err != nil {
		return sessionMeta{}, err
	}
	if meta.ID == "" {
		return sessionMeta{}, fmt.Errorf("server: session.json in %s has no id", dir)
	}
	return meta, nil
}

// noteRecoveredID advances the id counter past a recovered session id so
// new sessions never collide with recovered ones.
func (s *Server) noteRecoveredID(id string) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}

// recoverFinished restores a cleanly closed session's report into the
// finished archive.
func (s *Server) recoverFinished(dir string, meta sessionMeta) {
	done := make(chan struct{})
	close(done)
	sess := &Session{
		ID:      meta.ID,
		cfg:     meta.Config,
		srv:     s,
		dir:     dir,
		closing: true,
		done:    done,
		fed:     meta.Events,
	}
	doc, err := s.fsys().ReadFile(filepath.Join(dir, "report.json"))
	if err == nil {
		if rep, perr := race.ReportFromJSON(doc); perr == nil {
			sess.report = rep
		} else {
			sess.err = fmt.Errorf("server: persisted report unreadable: %w", perr)
		}
	} else {
		sess.err = fmt.Errorf("server: persisted report missing: %w", err)
	}
	s.mu.Lock()
	s.archiveLocked(sess)
	s.mu.Unlock()
}

// recoverOpen rebuilds a live session: recover the journal (truncating the
// torn tail), build a fresh engine from the persisted config, replay the
// journal into it, and hand the session to a new feeder. The replay runs
// on the recovering goroutine — the feeder starts only afterwards, so the
// engine is never touched concurrently.
func (s *Server) recoverOpen(parent tracing.SpanContext, dir string, meta sessionMeta) error {
	ssp := s.cfg.Tracer.Child("raced.recover.session", parent)
	ssp.SetAttr("session", meta.ID)
	defer ssp.End()
	jlog, err := store.Open(filepath.Join(dir, "journal"),
		store.Options{Metrics: &s.metrics.store, FS: s.fsys()})
	if err != nil {
		ssp.SetError(err)
		return err
	}
	sess := &Session{
		ID:    meta.ID,
		cfg:   meta.Config,
		srv:   s,
		dir:   dir,
		jlog:  jlog,
		work:  make(chan workItem, s.cfg.QueueDepth),
		done:  make(chan struct{}),
		slabs: newSlabs(),
	}
	// Replay spans (and the session's later ingest spans, until a
	// connection re-attaches) parent under the recovery tree.
	if ssp != nil {
		sess.traceCtx = ssp.Context()
	}
	sink, err := s.cfg.newSink(meta.Config, sess.onRace, true)
	if err != nil {
		jlog.Close()
		ssp.SetError(err)
		return err
	}
	if err := sess.replayJournal(sink); err != nil {
		// A journal the engine rejects (poisoned mid-replay) still yields
		// a live session — with the sticky error a resuming client must
		// see, exactly as if the failure had happened without a restart.
		sess.poison(err, nil)
	}
	sess.lastActive = s.cfg.now()
	sess.enqueued = sess.fed

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jlog.Close()
		abortSink(sink)
		return ErrServerClosed
	}
	s.sessions[sess.ID] = sess
	s.mu.Unlock()
	s.metrics.opened.Add(1)
	go sess.run(sink)
	return nil
}

// replayJournal streams the recovered journal into the fresh engine. The
// session's online race list and event counts rebuild as a side effect of
// the engine re-detecting every race (the onRace callback is live during
// replay).
func (sess *Session) replayJournal(sink engineSink) (err error) {
	jsp := sess.startSpan("raced.journal.replay", tracing.SpanContext{})
	var replayed uint64
	defer func() {
		jsp.SetInt("events", int64(replayed))
		jsp.SetError(err)
		jsp.End()
	}()
	r, err := sess.jlog.Reader()
	if err != nil {
		return err
	}
	defer r.Close()
	// The engine copies what it retains, so one buffer serves every batch.
	batch := make([]race.Event, replayChunk)
	for {
		n, err := r.ReadBatch(batch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := guard("", func() error { return sink.FeedBatch(batch[:n]) }); err != nil {
			return err
		}
		// Recovery work, not new ingest: the original run already counted
		// these events in the server metrics, so replay updates only the
		// session's own cursor (double-counting would spike events_total
		// after every restart).
		sess.mu.Lock()
		sess.fed += uint64(n)
		sess.mu.Unlock()
		replayed += uint64(n)
	}
}

// journalTrace reads the session's journal back as one trace, declared over
// the id spaces its segment summaries record.
func (sess *Session) journalTrace() (*race.Trace, error) {
	r, err := sess.jlog.Reader()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.ReadTrace()
}

// Shutdown is the graceful counterpart of Close for a durable server:
// it stops admitting sessions, drains every live durable session's
// queue, syncs and seals its journal, and discards the in-memory engines
// without producing reports — on disk every live session stays "open",
// so the next process's Recover resumes all of them at the acked offset.
// Memory-only sessions (no journal) have nothing to preserve and are
// aborted with ErrServerClosed, exactly as Close would.
func (s *Server) Shutdown() error {
	s.stop(func(sess *Session) bool {
		if sess.jlog != nil {
			return sess.suspend()
		}
		return sess.abort(ErrServerClosed)
	})
	return nil
}

// suspend quiesces a session for graceful shutdown: pending batches drain
// into the journal and engine, the journal is sealed, and the feeder
// exits without closing the engine into a report — the on-disk state
// stays "open" for the next process to resume. A session already closing
// (a client's Close racing the shutdown) is left alone: its clean close,
// report and all, completes normally.
func (sess *Session) suspend() bool {
	// The feeder reads the flag only after the channel closes, and only a
	// suspend that actually owns the close may set it — a clean close in
	// flight must win.
	owned := sess.end(func() {
		sess.mu.Lock()
		sess.suspended = true
		sess.mu.Unlock()
	})
	if owned {
		// Late API calls on the dead process's session object get a truthful
		// terminal error (the next process serves the resumed session).
		sess.fail(ErrSuspended)
	}
	return owned
}
