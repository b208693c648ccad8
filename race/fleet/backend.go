// Package fleet scales raced horizontally: a stateless ingress router
// (cmd/racefleet) accepts the existing wire protocol and HTTP API, routes
// each session to one of N raced backends by consistent hashing on the
// session id, health-checks the backends, and rebalances by migrating
// sessions through their durable racelog journals.
//
// The capacity model is additive because sessions are journaled, not
// sticky: a backend crash costs a journal replay on another backend, never
// data — every event a client saw acknowledged at a flush barrier is synced
// in the session's journal, and the journal (plus session.json) is the
// whole session. Migration is therefore just: seal the journal on the
// source (server.Session suspend), copy the session directory to the
// target's data dir, recover it there, and let the client re-resume through
// the router at the acked offset.
//
// The Backend seam has two implementations so the whole fleet is testable
// in one process: Local wraps a *server.Server directly (deterministic
// tests, simulated crashes via Kill), Remote speaks the wire protocol and
// HTTP to a real raced.
//
// The router keeps no error classifier: failover, redirects, mark-down and
// the codes it sends all read race/server's condition table
// (server.Classify), which its own sentinels join by wrapping.
package fleet

import (
	"context"
	"net/http"

	"repro/internal/obs/tracing"
	"repro/race/server"
)

// routerErr is a router-side error that server.Classify resolves to the
// row of the server condition it wraps: the router's own failures join the
// one error table instead of keeping a second one.
type routerErr struct {
	msg  string
	cond error
}

func (e *routerErr) Error() string { return e.msg }
func (e *routerErr) Unwrap() error { return e.cond }

// Errors surfaced by backends and routing.
var (
	// ErrBackendDraining marks a backend that answers health probes but
	// has been told to stop admitting sessions: reachable (existing
	// sessions keep streaming, admin calls work) but not routable.
	ErrBackendDraining error = &routerErr{"fleet: backend is draining", server.ErrDraining}
	// ErrNoBackends means no routable backend remains for an operation.
	ErrNoBackends error = &routerErr{"fleet: no routable backends", server.ErrServerFull}
	// ErrBackendDown is a simulated-crash (Local.Kill) or probe-declared
	// dead backend refusing an operation.
	ErrBackendDown error = &routerErr{"fleet: backend is down", server.ErrConnLost}
)

// Backend is one raced instance as the router sees it. Open/Resume carry
// the streaming path (the router's TCP proxy); Suspend/RecoverSession/
// Drain are the migration control surface; Proxy forwards one HTTP API
// request. DataDir is the backend's storage root as visible to the router —
// migration copies session directories between backend data dirs, so a
// fleet shares a filesystem (one host, NFS, or a mounted volume).
type Backend interface {
	Name() string
	DataDir() string

	// Healthz probes readiness: nil (routable), ErrBackendDraining
	// (reachable, not routable), or any other error (unreachable).
	Healthz(ctx context.Context) error

	// Open starts a fresh session under the router-chosen id.
	Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error)
	// Resume re-attaches to a session the backend knows (live or journal-
	// recovered), returning the event offset already accepted.
	Resume(ctx context.Context, id string) (Session, uint64, error)

	// Suspend seals a live durable session's journal and frees its slot,
	// returning the journaled offset — the migration source half.
	Suspend(ctx context.Context, id string) (uint64, error)
	// RecoverSession loads a session directory that appeared under the
	// backend's data dir — the migration target half.
	RecoverSession(ctx context.Context, id string) error
	// Drain stops the backend from admitting new sessions.
	Drain(ctx context.Context) error

	// Sessions lists the backend's live and finished sessions.
	Sessions(ctx context.Context) ([]server.SessionStatus, error)
	// Proxy forwards one HTTP API request to the backend.
	Proxy(w http.ResponseWriter, r *http.Request)
}

// Session is one streaming session held open through a backend. Events
// travel as bytes: FeedRecords takes the body of one Events frame — whole,
// valid event records, which the router has already checked — and must not
// keep recs after it returns. Flush is the sync barrier, returning the
// offset the backend acknowledges; parent (the router's flush span, or the
// client's passed through; zero for none) is what the backend's barrier
// spans hang under. Close returns the backend's canonical report JSON
// verbatim, so a report is byte-identical whether the session stayed put or
// migrated. Release drops the attachment without ending the session
// (durable sessions stay resumable).
type Session interface {
	FeedRecords(recs []byte) error
	Flush(parent tracing.SpanContext) (uint64, error)
	Close() ([]byte, error)
	Release()
}
