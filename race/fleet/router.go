package fleet

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/race/server"
)

// Router is the stateless ingress in front of a raced fleet. It speaks the
// same wire protocol and HTTP API as a single raced, so clients point at
// the router instead of a backend and nothing else changes; the router
// assigns each session an id, hashes it onto a backend, and keeps the
// stream flowing across backend drains, crashes, and migrations.
//
// "Stateless" is literal: the only routing inputs are the configured
// backend list (the consistent-hash ring is a pure function of it) and
// live health state, both reconstructible at any moment. Sessions
// themselves live in backend journals — a router restart loses nothing.
type Router struct {
	backends map[string]Backend
	names    []string // sorted, fixed at construction
	ring     *ring
	health   *healthMonitor
	reg      *obs.Registry
	metrics  *fleetMetrics
	logger   *slog.Logger
	tracer   *tracing.Tracer
	front    *server.Front // the wire-protocol front end (ServeTCP)
	newID    func() string

	lockMu    sync.Mutex
	sessLocks map[string]*sessLock
}

// sessLock is one session id's routing lock, held in Router.sessLocks while
// anyone holds or waits for it.
type sessLock struct {
	sync.Mutex
	refs int // holders and waiters, under Router.lockMu
}

// Options configures a Router.
type Options struct {
	// ProbeInterval is the health-probe period (DefaultProbeInterval when
	// zero).
	ProbeInterval time.Duration

	// IOTimeout, when positive, cuts client connections that make no read
	// or write progress for the duration (the same stall guard raced's
	// Config.IOTimeout applies on backends).
	IOTimeout time.Duration

	// WrapConn, when set, wraps every accepted client connection — the
	// router-side network fault-injection seam (fault.WrapConn). Applied
	// under the IOTimeout layer, so injected stalls hit the same deadline
	// an organic stall would.
	WrapConn func(net.Conn) net.Conn

	// NewSessionID mints the id of a session whose client chose none; the
	// id picks the session's backend on the hash ring. Nil means
	// NewSessionID (crypto/rand). A fault-injection harness supplies a
	// seeded source, so that which backend its schedule hits is a function
	// of its seed.
	NewSessionID func() string

	// Registry receives the router's fleet_* metrics. Nil creates a
	// private registry, reachable via Router.Registry. A registry must
	// not be shared between Routers (series would collide).
	Registry *obs.Registry

	// Logger receives the router's structured logs. Nil uses
	// slog.Default().
	Logger *slog.Logger

	// Tracer, when set, records router-side spans (session, placement,
	// flush, migration) and propagates trace context to backends — a
	// client-initiated trace ID follows the stream through the router onto
	// its backend. Nil disables router spans; a client's trace context is
	// still forwarded to backends untouched.
	Tracer *tracing.Tracer
}

// New builds a router over backends and starts health probing. Close stops
// the probers.
func New(backends []Backend, opts Options) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("fleet: router needs at least one backend")
	}
	rt := &Router{
		backends:  make(map[string]Backend, len(backends)),
		sessLocks: make(map[string]*sessLock),
		reg:       opts.Registry,
		logger:    opts.Logger,
		tracer:    opts.Tracer,
		newID:     opts.NewSessionID,
	}
	if rt.newID == nil {
		rt.newID = NewSessionID
	}
	if rt.reg == nil {
		rt.reg = obs.NewRegistry()
	}
	if rt.logger == nil {
		rt.logger = slog.Default()
	}
	for _, b := range backends {
		name := b.Name()
		if name == "" {
			return nil, errors.New("fleet: backend with empty name")
		}
		if _, dup := rt.backends[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate backend name %q", name)
		}
		rt.backends[name] = b
		rt.names = append(rt.names, name)
	}
	rt.metrics = newFleetMetrics(rt.reg, rt.names)
	rt.front = &server.Front{
		Logger: rt.logger, Tracer: rt.tracer, IOTimeout: opts.IOTimeout, WrapConn: opts.WrapConn,
		SpanName:     "fleet.session",
		Open:         rt.open,
		Redirects:    rt.metrics.redirects,
		ConnTimeouts: rt.metrics.connTimeouts, CorruptFrames: rt.metrics.corruptFrames,
	}
	rt.ring = newRing(rt.names)
	rt.health = newHealthMonitor(rt.names, opts.ProbeInterval)
	rt.metrics.registerBackendUp(rt.reg, rt.names, rt.health)
	rt.health.onProbe = rt.metrics.probeHook
	rt.health.onRecover = func(name string) { rt.metrics.recoveries[name].Inc() }
	rt.health.start(func(ctx context.Context, name string) error {
		return rt.backends[name].Healthz(ctx)
	})
	return rt, nil
}

// Registry exposes the router's metrics registry (the one from
// Options.Registry, or the private default).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Close stops health probing. Sessions keep living on their backends.
func (rt *Router) Close() { rt.health.close() }

// Backends returns the backend names on the ring (sorted order of
// construction).
func (rt *Router) Backends() []string { return append([]string(nil), rt.names...) }

// span starts a router-side child span under whatever trace context ctx
// carries (nil, costing nothing, when tracing is off).
func (rt *Router) span(ctx context.Context, name string) *tracing.Span {
	return rt.tracer.Child(name, tracing.FromContext(ctx))
}

// lockSession serializes routing decisions and migrations per session id.
// The id's entry lives only while someone holds or waits for it, so ids
// that come and go — unknown ones a client made up included — leave
// nothing behind.
func (rt *Router) lockSession(id string) func() {
	rt.lockMu.Lock()
	l := rt.sessLocks[id]
	if l == nil {
		l = new(sessLock)
		rt.sessLocks[id] = l
	}
	l.refs++
	rt.lockMu.Unlock()
	l.Lock()
	return func() {
		l.Unlock()
		rt.lockMu.Lock()
		if l.refs--; l.refs == 0 {
			delete(rt.sessLocks, id)
		}
		rt.lockMu.Unlock()
	}
}

// NewSessionID mints a router-assigned session id: "f" + 12 hex chars.
// The prefix-plus-randomness form cannot collide with a backend's own
// auto-assigned ids (which session-id validation reserves).
func NewSessionID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("fleet: reading random session id: " + err.Error())
	}
	return "f" + hex.EncodeToString(b[:])
}

// isUnknownSession reports whether err says the backend has never heard of
// the session.
func isUnknownSession(err error) bool {
	return server.Classify(err).Code == wire.CodeUnknownSession
}

// isUnreachable reports whether err says the backend is gone (a
// connection-level failure, a killed local backend) rather than that it
// rejected the session; an injected fault (fault.Conn, fault.Gate) and an
// organic one route the same.
func isUnreachable(err error) bool {
	return server.Classify(err).Recovery == server.Reconnect
}

// called is the router's one failure signal: the error of every Backend
// call passes through it, and a backend the call could not reach is marked
// down at once — off the routable set until the prober has seen it earn its
// way back. It returns err.
func (rt *Router) called(name string, err error) error {
	if isUnreachable(err) {
		rt.health.markDown(name)
	}
	return err
}

// validResume answers an id a client or operator names an existing session
// by: one that breaks the grammar RecoverSession enforces is no session
// here, and is refused before it reaches a ring walk, a lock or a path.
func validResume(id string) error {
	if server.ValidateResumeID(id) != nil {
		return fmt.Errorf("%w: %q", server.ErrUnknown, id)
	}
	return nil
}

// place is the fleet's one placement decision, for a wire open and an HTTP
// one alike: the routable backends of id's ring sequence are offered the
// session through try, in order, until one takes it. A backend that is gone
// (Reconnect) is marked down and passed over; one that admits nothing now
// (Failover: full, draining, closed) is passed over; any other refusal is
// the answer. The walk ends early when ctx does.
func (rt *Router) place(ctx context.Context, id string, try func(Backend) error) (Backend, error) {
	rsp := rt.span(ctx, "fleet.route_open")
	rsp.SetAttr("session", id)
	defer rsp.End()
	var lastErr error
	for _, name := range rt.ring.sequence(id) {
		if ctx.Err() != nil {
			break
		}
		if !rt.health.routable(name) {
			continue
		}
		b := rt.backends[name]
		err := rt.called(name, try(b))
		if err == nil {
			rt.metrics.sessionsRouted[name].Inc()
			rsp.SetAttr("backend", name)
			return b, nil
		}
		lastErr = err
		if r := server.Classify(err).Recovery; r != server.Reconnect && r != server.Failover {
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = ErrNoBackends
	}
	return nil, lastErr
}

// routeOpen places a fresh wire session.
func (rt *Router) routeOpen(ctx context.Context, id string, cfg server.SessionConfig) (sess Session, b Backend, err error) {
	b, err = rt.place(ctx, id, func(b Backend) (err error) {
		sess, err = b.Open(ctx, id, cfg)
		return err
	})
	return sess, b, err
}

// resumeOn resumes id on one backend and counts it.
func (rt *Router) resumeOn(ctx context.Context, b Backend, id string) (Session, uint64, error) {
	sess, fed, err := b.Resume(ctx, id)
	if err = rt.called(b.Name(), err); err != nil {
		return nil, 0, err
	}
	rt.metrics.resumesRouted[b.Name()].Inc()
	return sess, fed, nil
}

// resumeLive re-attaches to id where it is live on a routable backend,
// wherever on the ring that is — its owner, the next arc it failed over or
// was migrated to, or one the ring no longer prefers. When no such backend
// knows the session, the backend returned (with a nil Session) is the first
// that said so: the home to bring it to. Any other refusal (busy, poisoned,
// …) is not routing's problem.
func (rt *Router) resumeLive(ctx context.Context, id string) (Session, uint64, Backend, error) {
	var target Backend
	lastErr := ErrNoBackends
	for _, name := range rt.ring.sequence(id) {
		if !rt.health.routable(name) {
			continue
		}
		b := rt.backends[name]
		sess, fed, err := rt.resumeOn(ctx, b, id)
		switch {
		case err == nil:
			return sess, fed, b, nil
		case isUnreachable(err): // marked down by called: the next arc
		case isUnknownSession(err):
			if target == nil {
				target = b
			}
		default:
			return nil, 0, nil, err
		}
		lastErr = err
	}
	return nil, 0, target, lastErr
}

// routeResume re-attaches a client to its session wherever it now lives,
// bringing it home first if it is live nowhere a new connection may land:
// on a draining backend, or sealed in the directory of one that crashed or
// suspended it. The unlocked first look is the common case; the second,
// under the session's router lock, sees what a concurrent resume or admin
// migration that held the lock has just done.
func (rt *Router) routeResume(ctx context.Context, id string) (Session, uint64, Backend, error) {
	rsp := rt.span(ctx, "fleet.route_resume")
	rsp.SetAttr("session", id)
	defer rsp.End()
	sess, fed, b, err := rt.resumeLive(ctx, id)
	if sess != nil || b == nil {
		return sess, fed, b, err
	}
	unlock := rt.lockSession(id)
	defer unlock()
	if sess, fed, b, err = rt.resumeLive(ctx, id); sess != nil || b == nil {
		return sess, fed, b, err
	}
	if err := rt.bring(ctx, id, b); err != nil {
		return nil, 0, nil, err
	}
	sess, fed, err = rt.resumeOn(ctx, b, id)
	return sess, fed, b, err
}

// ---- wire-protocol front end ----

// ServeTCP accepts wire-protocol connections until the listener closes, one
// proxied session per connection, through raced's own accept and protocol
// loops (server.Front), so the two front ends cannot answer a frame
// differently. Frame in, session op out: Events feed, Flush barriers (acked
// with the backend's durable offset), EOF closes and relays the backend's
// report bytes verbatim. When the backend fails mid-stream in a way that
// re-resuming can heal — drain, migration, crash — the client gets a
// Redirect frame instead of an Error and reconnects through the router,
// which lands it on the session's new home.
func (rt *Router) ServeTCP(lis net.Listener) error { return rt.front.Serve(lis) }

// open routes a hello: a resume goes wherever the session now lives, a
// fresh session — under the client's id or a minted one — to its ring arc.
// ctx carries the fleet.session span (or, with router tracing off, the
// client's context untouched) that backends see as their parent.
func (rt *Router) open(ctx context.Context, hello *server.HelloPayload) (server.Stream, server.AckPayload, error) {
	var (
		sess Session
		fed  uint64
		err  error
	)
	id := hello.Resume
	if id != "" {
		if err = validResume(id); err == nil {
			sess, fed, _, err = rt.routeResume(ctx, id)
		}
	} else {
		if id = hello.SessionID; id == "" {
			id = rt.newID()
		}
		sess, _, err = rt.routeOpen(ctx, id, hello.Session)
	}
	if err != nil {
		return nil, server.AckPayload{}, err
	}
	return &proxied{rt: rt, sc: tracing.FromContext(ctx), id: id, sess: sess}, server.AckPayload{Session: id, Fed: fed}, nil
}

// proxied is the router's server.Stream: one client connection's session,
// held open on its backend.
type proxied struct {
	rt   *Router
	sc   tracing.SpanContext // the connection's trace context: a flush's default parent
	id   string
	sess Session
	buf  []byte // Events bodies: one buffer, reused for the connection's lifetime
}

// Events checks an Events body where it lies — frame checksum, whole
// records, valid ops — and forwards it verbatim, so frame boundaries (and
// with them the offsets backends ack) pass through unchanged.
func (p *proxied) Events(br *bufio.Reader, n int) (readErr, err error) {
	if p.buf, readErr = wire.ReadBody(br, wire.TEvents, n, p.buf); readErr != nil {
		return readErr, nil
	}
	if err := trace.CheckRecords(p.buf); err != nil {
		return err, nil
	}
	return nil, p.sess.FeedRecords(p.buf)
}

// Flush traces per flush: the fleet.flush span parents under the client's
// flush span when the frame carried one, else the session context; the
// backend sees the router's span (or, with router tracing off, the client's
// context passed through).
func (p *proxied) Flush(parent tracing.SpanContext) (uint64, error) {
	if !parent.Valid() {
		parent = p.sc
	}
	fsp := p.rt.tracer.Child("fleet.flush", parent)
	fsp.SetAttr("session", p.id)
	if fsp != nil {
		parent = fsp.Context()
	}
	fed, err := p.sess.Flush(parent)
	fsp.SetError(err)
	fsp.End()
	return fed, err
}

func (p *proxied) Close() ([]byte, error) { return p.sess.Close() }

// Drop lets go of the backend session, whatever the cause: the backend ends
// a memory-only one and keeps a durable one resumable.
func (p *proxied) Drop(error) { p.sess.Release() }
