package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/race/server"
)

// Local adapts an in-process *server.Server to the Backend seam — the fast,
// deterministic implementation for tests and single-binary deployments.
// Kill simulates a backend crash: every subsequent operation (including
// in-flight sessions) fails as unreachable, while whatever the server had
// journaled stays on disk, exactly like a SIGKILL'd raced. The kill switch
// is a FaultBackend gate that never reopens, so it cuts exactly the
// operations an injected partition cuts.
type Local struct {
	*FaultBackend
	srv    *server.Server
	killed atomic.Bool
}

// NewLocal wraps srv as a named backend.
func NewLocal(name string, srv *server.Server) *Local {
	b := &Local{srv: srv}
	b.FaultBackend = NewFaultBackend(&inProcess{name, srv, srv.Handler()}, func(string) error {
		if b.killed.Load() {
			return fmt.Errorf("%w: %s (killed)", ErrBackendDown, name)
		}
		return nil
	})
	return b
}

// Kill simulates a hard crash. The wrapped server object stays alive (the
// test still owns it) but the backend refuses everything from now on.
func (b *Local) Kill() { b.killed.Store(true) }

// Server returns the wrapped server (tests reach through for assertions).
func (b *Local) Server() *server.Server { return b.srv }

// inProcess is Local without the kill switch: Backend calls turned into
// calls on the server.
type inProcess struct {
	name    string
	srv     *server.Server
	handler http.Handler
}

func (b *inProcess) Name() string    { return b.name }
func (b *inProcess) DataDir() string { return b.srv.DataDir() }

func (b *inProcess) Healthz(context.Context) error {
	if b.srv.Draining() {
		return ErrBackendDraining
	}
	return nil
}

func (b *inProcess) Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error) {
	sess, _, err := b.attach(ctx, &server.HelloPayload{SessionID: id, Session: cfg})
	return sess, err
}

func (b *inProcess) Resume(ctx context.Context, id string) (Session, uint64, error) {
	return b.attach(ctx, &server.HelloPayload{Resume: id})
}

// attach enters the session the way a wire connection to the server would
// (server.Attach), so a session's lifecycle is the same behind either door.
func (b *inProcess) attach(ctx context.Context, hello *server.HelloPayload) (Session, uint64, error) {
	att, ack, err := b.srv.Attach(ctx, hello)
	if err != nil {
		return nil, 0, err
	}
	return localSession{att}, ack.Fed, nil
}

func (b *inProcess) Suspend(_ context.Context, id string) (uint64, error) {
	return b.srv.SuspendSession(id)
}

func (b *inProcess) RecoverSession(ctx context.Context, id string) error {
	return b.srv.RecoverSession(ctx, id)
}

func (b *inProcess) Drain(context.Context) error {
	b.srv.Drain()
	return nil
}

func (b *inProcess) Sessions(context.Context) ([]server.SessionStatus, error) {
	return b.srv.Sessions(), nil
}

func (b *inProcess) Proxy(w http.ResponseWriter, r *http.Request) { b.handler.ServeHTTP(w, r) }

// localSession is the server's own attachment — FeedRecords, Flush and
// Close are the methods its connection loop calls — plus Release.
type localSession struct{ server.Attachment }

// Release is a connection to the server going away: a durable session stays
// resumable at its enqueued offset, a memory-only one frees its slot.
func (s localSession) Release() { s.Drop(server.ErrConnLost) }
