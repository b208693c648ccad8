package fleet

import (
	"context"
	"net/http"

	"repro/internal/obs/tracing"
	"repro/race/server"
)

// FaultBackend decorates a Backend with an injected availability gate — the
// one fleet-level fault seam: router→backend network faults are injected
// here (a fault.Gate driving the gate), not inside a backend's dialer, so
// Local and Remote fail the same way. Every operation (and every session operation on
// sessions it vended) first consults gate(op) and fails with the gate's
// error when non-nil, so a deterministic schedule (fault.Gate driving the
// gate) produces backend flapping and partial partitions without touching
// the wrapped backend. The op strings name the Backend method in lower
// case ("open", "resume", "healthz", …; session ops are "feed", "flush",
// "close"), letting a gate partition selectively — e.g. fail the wire ops
// while probes still pass, the nastiest flavor of partial partition.
type FaultBackend struct {
	Backend
	gate func(op string) error
}

// NewFaultBackend wraps b so every operation consults gate first.
func NewFaultBackend(b Backend, gate func(op string) error) *FaultBackend {
	return &FaultBackend{Backend: b, gate: gate}
}

func (b *FaultBackend) Healthz(ctx context.Context) error {
	if err := b.gate("healthz"); err != nil {
		return err
	}
	return b.Backend.Healthz(ctx)
}

func (b *FaultBackend) Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error) {
	if err := b.gate("open"); err != nil {
		return nil, err
	}
	sess, err := b.Backend.Open(ctx, id, cfg)
	if err != nil {
		return nil, err
	}
	return &faultSession{Session: sess, gate: b.gate}, nil
}

func (b *FaultBackend) Resume(ctx context.Context, id string) (Session, uint64, error) {
	if err := b.gate("resume"); err != nil {
		return nil, 0, err
	}
	sess, fed, err := b.Backend.Resume(ctx, id)
	if err != nil {
		return nil, 0, err
	}
	return &faultSession{Session: sess, gate: b.gate}, fed, nil
}

func (b *FaultBackend) Suspend(ctx context.Context, id string) (uint64, error) {
	if err := b.gate("suspend"); err != nil {
		return 0, err
	}
	return b.Backend.Suspend(ctx, id)
}

func (b *FaultBackend) RecoverSession(ctx context.Context, id string) error {
	if err := b.gate("recover"); err != nil {
		return err
	}
	return b.Backend.RecoverSession(ctx, id)
}

func (b *FaultBackend) Drain(ctx context.Context) error {
	if err := b.gate("drain"); err != nil {
		return err
	}
	return b.Backend.Drain(ctx)
}

func (b *FaultBackend) Sessions(ctx context.Context) ([]server.SessionStatus, error) {
	if err := b.gate("sessions"); err != nil {
		return nil, err
	}
	return b.Backend.Sessions(ctx)
}

func (b *FaultBackend) Proxy(w http.ResponseWriter, r *http.Request) {
	if err := b.gate("proxy"); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	b.Backend.Proxy(w, r)
}

// faultSession gates the per-session stream ops, so a partition that opens
// mid-stream severs live sessions the way a dead backend would.
type faultSession struct {
	Session
	gate func(op string) error
}

func (s *faultSession) FeedRecords(recs []byte) error {
	if err := s.gate("feed"); err != nil {
		return err
	}
	return s.Session.FeedRecords(recs)
}

func (s *faultSession) Flush(parent tracing.SpanContext) (uint64, error) {
	if err := s.gate("flush"); err != nil {
		return 0, err
	}
	return s.Session.Flush(parent)
}

func (s *faultSession) Close() ([]byte, error) {
	if err := s.gate("close"); err != nil {
		return nil, err
	}
	return s.Session.Close()
}
