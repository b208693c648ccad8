package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/obs/tracing"
	"repro/race/server"
)

// Local adapts an in-process *server.Server to the Backend seam — the fast,
// deterministic implementation for tests and single-binary deployments.
//
// A gate (SetGate) stands between the router and the server: every Backend
// call, and every call on a session Local vended, first asks the gate and
// fails with its error when non-nil, without reaching the server. The op it
// is asked about names the method in lower case ("open", "resume",
// "healthz", "suspend", "recover", "drain", "sessions", "proxy"; session
// ops are "feed", "flush", "close"), so a gate can partition selectively —
// fail the wire ops while probes still pass, the nastiest partial
// partition. A fault.Gate behind it flaps the backend on a seeded schedule.
// Kill is a gate that never reopens: every later operation, in-flight
// sessions included, fails as unreachable while whatever the server had
// journaled stays on disk, exactly like a SIGKILL'd raced.
type Local struct {
	name    string
	srv     *server.Server
	handler http.Handler
	gate    atomic.Pointer[func(op string) error]
}

// NewLocal wraps srv as a named backend.
func NewLocal(name string, srv *server.Server) *Local {
	return &Local{name: name, srv: srv, handler: srv.Handler()}
}

// SetGate makes gate the check every later operation passes first.
func (b *Local) SetGate(gate func(op string) error) { b.gate.Store(&gate) }

// Kill simulates a hard crash. The wrapped server object stays alive (the
// test still owns it) but the backend refuses everything from now on.
func (b *Local) Kill() {
	b.SetGate(func(string) error { return fmt.Errorf("%w: %s (killed)", ErrBackendDown, b.name) })
}

// Server returns the wrapped server (tests reach through for assertions).
func (b *Local) Server() *server.Server { return b.srv }

// check asks the gate, if any, about op.
func (b *Local) check(op string) error {
	if gate := b.gate.Load(); gate != nil {
		return (*gate)(op)
	}
	return nil
}

func (b *Local) Name() string    { return b.name }
func (b *Local) DataDir() string { return b.srv.DataDir() }

func (b *Local) Healthz(context.Context) error {
	if err := b.check("healthz"); err != nil {
		return err
	}
	if b.srv.Draining() {
		return ErrBackendDraining
	}
	return nil
}

func (b *Local) Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error) {
	if err := b.check("open"); err != nil {
		return nil, err
	}
	sess, _, err := b.attach(ctx, &server.HelloPayload{SessionID: id, Session: cfg})
	return sess, err
}

func (b *Local) Resume(ctx context.Context, id string) (Session, uint64, error) {
	if err := b.check("resume"); err != nil {
		return nil, 0, err
	}
	return b.attach(ctx, &server.HelloPayload{Resume: id})
}

// attach enters the session the way a wire connection to the server would
// (server.Attach), so a session's lifecycle is the same behind either door.
func (b *Local) attach(ctx context.Context, hello *server.HelloPayload) (Session, uint64, error) {
	att, ack, err := b.srv.Attach(ctx, hello)
	if err != nil {
		return nil, 0, err
	}
	return localSession{att, b}, ack.Fed, nil
}

func (b *Local) Suspend(_ context.Context, id string) (uint64, error) {
	if err := b.check("suspend"); err != nil {
		return 0, err
	}
	return b.srv.SuspendSession(id)
}

func (b *Local) RecoverSession(ctx context.Context, id string) error {
	if err := b.check("recover"); err != nil {
		return err
	}
	return b.srv.RecoverSession(ctx, id)
}

func (b *Local) Drain(context.Context) error {
	if err := b.check("drain"); err != nil {
		return err
	}
	b.srv.Drain()
	return nil
}

func (b *Local) Sessions(context.Context) ([]server.SessionStatus, error) {
	if err := b.check("sessions"); err != nil {
		return nil, err
	}
	return b.srv.Sessions(), nil
}

func (b *Local) Proxy(w http.ResponseWriter, r *http.Request) {
	if err := b.check("proxy"); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	b.handler.ServeHTTP(w, r)
}

// localSession is the server's own attachment — FeedRecords, Flush and
// Close are the methods its connection loop calls — behind its backend's
// gate, plus Release.
type localSession struct {
	server.Attachment
	b *Local
}

func (s localSession) FeedRecords(recs []byte) error {
	if err := s.b.check("feed"); err != nil {
		return err
	}
	return s.Attachment.FeedRecords(recs)
}

func (s localSession) Flush(parent tracing.SpanContext) (uint64, error) {
	if err := s.b.check("flush"); err != nil {
		return 0, err
	}
	return s.Attachment.Flush(parent)
}

func (s localSession) Close() ([]byte, error) {
	if err := s.b.check("close"); err != nil {
		return nil, err
	}
	return s.Attachment.Close()
}

// Release is a connection to the server going away: a durable session stays
// resumable at its enqueued offset, a memory-only one frees its slot.
func (s localSession) Release() { s.Drop(server.ErrConnLost) }
