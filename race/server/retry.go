package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs/tracing"
	"repro/race"
)

// ReliableSession wraps a RemoteSession with automatic reconnect-and-resume:
// when the connection to the backend dies mid-stream — or a fleet router
// answers with a Redirect because the session is migrating — the client
// re-dials the same address, Resumes the same session id, and replays the
// events the server had not yet acknowledged. Callers see one uninterrupted
// race.EventSink.
//
// The replay buffer is the client's half of the durability contract: every
// event since the last acknowledged Flush is retained in memory until the
// next Flush acknowledges it (a flush ack from a durable server means
// "journaled and synced"). Long streams should therefore Flush periodically
// — the buffer's high-water mark is the flush interval.
//
// By default a failure triggers exactly one immediate reconnect attempt
// (enough to ride out a router-side migration, where the target is already
// live). WithRetry enables bounded exponential backoff with jitter for the
// harder case of a backend that needs time to restart and recover journals.
type ReliableSession struct {
	ctx    context.Context
	addr   string
	policy RetryPolicy

	c    *Client
	sess *RemoteSession
	id   string

	tracer  *tracing.Tracer     // client-side span recording (WithTracer)
	traceSC tracing.SpanContext // first connection's session span: the stream's trace identity

	acked   uint64       // events the server has acknowledged (flush ack / resume ack)
	pending []race.Event // events fed after acked — the replay buffer
	closed  bool
	err     error

	// Timing seams, overridden only by tests: the backoff schedule is a
	// correctness property (bounded growth, jitter spread) that must be
	// assertable without real sleeps or a real entropy source.
	rand63 func(n int64) int64                    // jitter source (rand.Int63n)
	sleep  func(d time.Duration) <-chan time.Time // backoff wait (time.After)
}

var _ race.EventSink = (*ReliableSession)(nil)

// RetryPolicy bounds reconnection attempts after a connection failure or
// session handoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of reconnect attempts per failure.
	// The first attempt is immediate; each subsequent attempt waits
	// BaseDelay doubled per attempt (capped at MaxDelay), with uniform
	// jitter in [0.5, 1.5) of the delay to keep a fleet of resuming
	// clients from synchronizing.
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
}

// DefaultRetryPolicy is what WithRetry applies when given a zero policy:
// 5 attempts starting at 100ms, capped at 2s.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}

// ReliableOption configures OpenReliable.
type ReliableOption func(*ReliableSession)

// WithRetry enables backoff retry on reconnection. A zero policy selects
// DefaultRetryPolicy; zero fields of a partial policy are filled from it.
func WithRetry(p RetryPolicy) ReliableOption {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	return func(s *ReliableSession) { s.policy = p }
}

// WithTracer makes every underlying connection record client-side spans
// and propagate trace context, preserved across reconnects: resumed
// connections' session spans parent under the first connection's, so one
// trace ID follows the stream through redirects and migrations.
func WithTracer(t *tracing.Tracer) ReliableOption {
	return func(s *ReliableSession) { s.tracer = t }
}

// OpenReliable dials addr, opens a session, and returns a sink that
// survives connection loss and fleet-side session migration. ctx bounds the
// initial dial+handshake; its deadline (if any) does NOT apply to later
// reconnects — those are bounded by the retry policy — but its
// cancellation values are dropped too (a short connect timeout must not
// poison a long stream).
func OpenReliable(ctx context.Context, addr string, cfg SessionConfig, opts ...ReliableOption) (*ReliableSession, error) {
	rs, _, err := dialReliable(ctx, addr, opts, func(c *Client) (*RemoteSession, uint64, error) {
		sess, err := c.OpenContext(ctx, cfg)
		return sess, 0, err
	})
	return rs, err
}

// ResumeReliable re-attaches to an existing durable session as a
// ReliableSession, returning it plus the server's accepted offset — the
// caller feeds from there. Like OpenReliable, ctx bounds only the initial
// handshake.
func ResumeReliable(ctx context.Context, addr, id string, opts ...ReliableOption) (*ReliableSession, uint64, error) {
	return dialReliable(ctx, addr, opts, func(c *Client) (*RemoteSession, uint64, error) { return c.Resume(ctx, id) })
}

// dialReliable builds the session around its first connection: dial, then
// open — the handshake that tells OpenReliable from ResumeReliable.
func dialReliable(ctx context.Context, addr string, opts []ReliableOption, open func(*Client) (*RemoteSession, uint64, error)) (*ReliableSession, uint64, error) {
	rs := newReliable(ctx, addr, opts)
	c, err := DialContext(ctx, addr)
	if err != nil {
		return nil, 0, err
	}
	c.SetTracer(rs.tracer)
	sess, fed, err := open(c)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	rs.c, rs.sess, rs.id, rs.acked = c, sess, sess.ID(), fed
	rs.traceSC = sess.TraceContext()
	return rs, fed, nil
}

func newReliable(ctx context.Context, addr string, opts []ReliableOption) *ReliableSession {
	rs := &ReliableSession{
		ctx:    context.WithoutCancel(ctx),
		addr:   addr,
		policy: RetryPolicy{MaxAttempts: 1}, // single immediate reconnect; WithRetry adds backoff
		rand63: rand.Int63n,
		sleep:  time.After,
	}
	for _, opt := range opts {
		opt(rs)
	}
	return rs
}

// ID returns the session id (stable across reconnects and migrations).
func (s *ReliableSession) ID() string { return s.id }

// TraceContext returns the stream's trace identity — the first connection's
// session span — or a zero SpanContext when tracing is off. Reconnected
// sessions parent under it, so the whole stream shares one trace ID.
func (s *ReliableSession) TraceContext() tracing.SpanContext { return s.traceSC }

// reconnect re-dials, resumes the session, and replays the unacknowledged
// suffix of the stream. The resume ack's offset must land inside
// [acked, acked+len(pending)]: below means the server lost acknowledged
// (i.e. journal-synced) events, beyond means it acked events never sent —
// both are corruption, not something to paper over.
func (s *ReliableSession) reconnect() error {
	if s.c != nil {
		s.c.Close()
		s.c, s.sess = nil, nil
	}
	var lastErr error
	for attempt := 0; attempt < s.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-s.sleep(s.backoffDelay(attempt)):
			case <-s.ctx.Done():
				return s.fail(context.Cause(s.ctx))
			}
		}
		c, err := DialContext(s.ctx, s.addr)
		if err != nil {
			if s.ctx.Err() != nil {
				return s.fail(context.Cause(s.ctx))
			}
			lastErr = err
			continue
		}
		c.SetTracer(s.tracer)
		sess, fed, err := c.Resume(tracing.ContextWith(s.ctx, s.traceSC), s.id)
		if err != nil {
			c.Close()
			if s.ctx.Err() != nil {
				return s.fail(context.Cause(s.ctx))
			}
			lastErr = err
			if c := Classify(err); !c.Resumable() && c.Recovery != RetryResume {
				break
			}
			continue
		}
		if fed < s.acked || fed > s.acked+uint64(len(s.pending)) {
			c.Close()
			return s.fail(fmt.Errorf("server: resume of %s acked offset %d outside sent window [%d, %d]",
				s.id, fed, s.acked, s.acked+uint64(len(s.pending))))
		}
		// Drop the prefix the server already has; replay the rest.
		s.pending = s.pending[fed-s.acked:]
		s.acked = fed
		if err := sess.FeedBatch(s.pending); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		s.c, s.sess = c, sess
		return nil
	}
	return s.fail(fmt.Errorf("server: reconnecting session %s: %w", s.id, lastErr))
}

// backoffDelay computes the wait before reconnect attempt n (1-based; the
// zeroth attempt is immediate): BaseDelay doubled per attempt, capped at
// MaxDelay — the shift overflowing to non-positive also caps — with
// uniform jitter in [0.5, 1.5) of the nominal delay so a fleet of clients
// resuming after one backend restart does not reconnect in lockstep.
func (s *ReliableSession) backoffDelay(attempt int) time.Duration {
	delay := s.policy.BaseDelay << (attempt - 1)
	if delay <= 0 || delay > s.policy.MaxDelay {
		delay = s.policy.MaxDelay
	}
	return delay/2 + time.Duration(s.rand63(int64(delay)))
}

// fail makes err the session's sticky error, unless it already has one,
// and lets go of what only a live session needs: the connection, closed so
// the server sees the session's end instead of an idle socket, and the
// replay buffer, which nothing will replay.
func (s *ReliableSession) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	if s.c != nil {
		s.c.Close()
		s.c, s.sess = nil, nil
	}
	s.pending = nil
	return s.err
}

// FeedBatch buffers and forwards a run of events. A send failure whose
// condition is Resumable triggers reconnect; the replay there already
// re-ships the run, so the op is not repeated.
func (s *ReliableSession) FeedBatch(evs []race.Event) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("server: FeedBatch on closed reliable session")
	}
	s.pending = append(s.pending, evs...)
	if err := s.sess.FeedBatch(evs); err != nil {
		if !Classify(err).Resumable() {
			return s.fail(err)
		}
		return s.reconnect() // replay subsumes this batch
	}
	return nil
}

// Flush forces the stream to the server and blocks for acknowledgment;
// acknowledged events leave the replay buffer. On a transient failure the
// session reconnects (replaying the buffer) and flushes again.
func (s *ReliableSession) Flush() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("server: Flush on closed reliable session")
	}
	for {
		err := s.sess.Flush()
		if err == nil {
			if fed := s.sess.Flushed(); fed >= s.acked && fed <= s.acked+uint64(len(s.pending)) {
				s.pending = s.pending[fed-s.acked:]
				s.acked = fed
			}
			return nil
		}
		if !Classify(err).Resumable() {
			return s.fail(err)
		}
		if rerr := s.reconnect(); rerr != nil {
			return rerr
		}
	}
}

// Close ends the stream and returns the final report, riding out handoffs
// mid-close: a redirected EOF reconnects, replays the unacknowledged
// suffix, and closes again on the new backend.
func (s *ReliableSession) Close() (*race.Report, error) {
	doc, err := s.CloseJSON()
	if err != nil {
		return nil, err
	}
	return race.ReportFromJSON(doc)
}

// CloseJSON is Close returning the server's canonical report bytes. A
// session that has failed returns its sticky error, however often it is
// closed.
func (s *ReliableSession) CloseJSON() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, errors.New("server: reliable session already closed")
	}
	for {
		doc, err := s.sess.CloseJSON()
		if err == nil {
			s.closed = true
			s.c.Close()
			return doc, nil
		}
		if !Classify(err).Resumable() {
			s.closed = true
			return nil, s.fail(err)
		}
		if rerr := s.reconnect(); rerr != nil {
			s.closed = true
			return nil, rerr
		}
	}
}
