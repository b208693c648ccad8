package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/race/server"
)

// Local adapts an in-process *server.Server to the Backend seam — the fast,
// deterministic implementation for tests and single-binary deployments.
// Kill simulates a backend crash: every subsequent operation (including
// in-flight sessions) fails as unreachable, while whatever the server had
// journaled stays on disk, exactly like a SIGKILL'd raced.
type Local struct {
	name    string
	srv     *server.Server
	handler http.Handler
	killed  atomic.Bool
}

// NewLocal wraps srv as a named backend.
func NewLocal(name string, srv *server.Server) *Local {
	return &Local{name: name, srv: srv, handler: srv.Handler()}
}

// Kill simulates a hard crash. The wrapped server object stays alive (the
// test still owns it) but the backend refuses everything from now on.
func (b *Local) Kill() { b.killed.Store(true) }

// Server returns the wrapped server (tests reach through for assertions).
func (b *Local) Server() *server.Server { return b.srv }

func (b *Local) Name() string    { return b.name }
func (b *Local) DataDir() string { return b.srv.DataDir() }

func (b *Local) down() error {
	if b.killed.Load() {
		return fmt.Errorf("%w: %s (killed)", ErrBackendDown, b.name)
	}
	return nil
}

func (b *Local) Healthz(context.Context) error {
	if err := b.down(); err != nil {
		return err
	}
	if b.srv.Draining() {
		return ErrBackendDraining
	}
	return nil
}

func (b *Local) Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error) {
	if err := b.down(); err != nil {
		return nil, err
	}
	sess, err := b.srv.OpenSessionWithID(id, cfg)
	if err != nil {
		return nil, err
	}
	if err := sess.Attach(); err != nil {
		return nil, err
	}
	if sc := tracing.FromContext(ctx); sc.Valid() {
		sess.SetTraceContext(sc)
	}
	return &localSession{b: b, sess: sess}, nil
}

func (b *Local) Resume(ctx context.Context, id string) (Session, uint64, error) {
	if err := b.down(); err != nil {
		return nil, 0, err
	}
	sess, ok := b.srv.Session(id)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", server.ErrUnknown, id)
	}
	if err := sess.Attach(); err != nil {
		return nil, 0, err
	}
	if err := sess.Err(); err != nil {
		sess.Detach()
		return nil, 0, err
	}
	if sc := tracing.FromContext(ctx); sc.Valid() {
		sess.SetTraceContext(sc)
	}
	return &localSession{b: b, sess: sess}, sess.Enqueued(), nil
}

func (b *Local) Suspend(_ context.Context, id string) (uint64, error) {
	if err := b.down(); err != nil {
		return 0, err
	}
	return b.srv.SuspendSession(id)
}

func (b *Local) RecoverSession(ctx context.Context, id string) error {
	if err := b.down(); err != nil {
		return err
	}
	return b.srv.RecoverSessionCtx(ctx, id)
}

func (b *Local) Drain(context.Context) error {
	if err := b.down(); err != nil {
		return err
	}
	b.srv.Drain()
	return nil
}

func (b *Local) Sessions(context.Context) ([]server.SessionStatus, error) {
	if err := b.down(); err != nil {
		return nil, err
	}
	return b.srv.Sessions(), nil
}

func (b *Local) Proxy(w http.ResponseWriter, r *http.Request) {
	if err := b.down(); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	b.handler.ServeHTTP(w, r)
}

// localSession drives a *server.Session directly.
type localSession struct {
	b       *Local
	sess    *server.Session
	flushSC tracing.SpanContext // next Flush's trace parent (SetFlushContext)
}

// SetFlushContext parents the next Flush's server-side spans under sc.
func (s *localSession) SetFlushContext(sc tracing.SpanContext) { s.flushSC = sc }

func (s *localSession) FeedRecords(recs []byte) error {
	if err := s.b.down(); err != nil {
		return err
	}
	evs, err := wire.DecodeEvents(recs)
	if err != nil {
		return err
	}
	return s.sess.Feed(evs)
}

func (s *localSession) Flush() (uint64, error) {
	if err := s.b.down(); err != nil {
		return 0, err
	}
	sc := s.flushSC
	s.flushSC = tracing.SpanContext{}
	if err := s.sess.FlushCtx(sc); err != nil {
		return 0, err
	}
	return s.sess.Fed(), nil
}

func (s *localSession) Close() ([]byte, error) {
	if err := s.b.down(); err != nil {
		return nil, err
	}
	defer s.sess.Detach()
	rep, err := s.sess.Close()
	if err != nil {
		return nil, err
	}
	// Matches the raced TCP/HTTP report encoding, keeping local and remote
	// backends byte-transparent.
	return json.Marshal(rep)
}

func (s *localSession) Release() { s.sess.Detach() }
