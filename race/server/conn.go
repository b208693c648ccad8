package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/race"
)

// deadlineConn enforces Front.IOTimeout: every Read and Write refreshes
// the matching deadline, so steady progress — however slow — never trips
// it, while a connection that stalls completely for the timeout is cut
// with os.ErrDeadlineExceeded.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.Conn.SetReadDeadline(time.Now().Add(c.timeout))
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	c.Conn.SetWriteDeadline(time.Now().Add(c.timeout))
	return c.Conn.Write(p)
}

// HelloPayload is the JSON body of the wire protocol's Hello frame.
// Resume names an existing (typically journal-recovered) session to
// re-attach to instead of opening a new one; Session is ignored then.
// SessionID, when set on a fresh open, requests a caller-chosen id (the
// fleet router assigns ids so a session keeps its identity across backend
// migrations); clients verify the Ack echoes it, so an old server that
// ignores the field is detected rather than silently mis-assigning.
type HelloPayload struct {
	Proto     int           `json:"proto"`
	Session   SessionConfig `json:"session"`
	SessionID string        `json:"session_id,omitempty"`
	Resume    string        `json:"resume,omitempty"`
	// Trace optionally carries the client's W3C traceparent so the
	// server's spans for this connection join the client's trace. Old
	// peers ignore the unknown JSON field, so the protocol version is
	// unchanged (see wire.Proto).
	Trace string `json:"trace,omitempty"`
}

// AckPayload is the JSON body of the Ack frame. Fed is the event offset
// the session has already accepted — a resuming client continues sending
// from there (0 for a fresh session).
type AckPayload struct {
	Session string `json:"session"`
	Fed     uint64 `json:"fed"`
}

// FlushPayload is the optional JSON body of a Flush frame: a traceparent
// tying the server-side barrier spans (journal fsync, engine sync) to the
// client's flush span. Historically the Flush frame had an empty payload
// and servers never inspected it, so both directions stay compatible with
// old peers: an old server ignores the payload, a new server treats an
// empty one as "no trace context".
type FlushPayload struct {
	Trace string `json:"trace,omitempty"`
}

// FlushAckPayload is the JSON body of the FlushAck frame.
type FlushAckPayload struct {
	Fed uint64 `json:"fed"`
}

// flushAckPrefix is what a FlushAckPayload's JSON, {"fed":N} with N the
// events the session has fed, begins with.
const flushAckPrefix = `{"fed":`

// parseFlushAck reads a FlushAck body: the canonical {"fed":N} that
// encoding/json writes for a FlushAckPayload, the one form a server sends
// (a router passes its backend's frame on unchanged), with no reflection.
// Anything else is an error.
func parseFlushAck(payload []byte) (uint64, error) {
	digits, pre := bytes.CutPrefix(payload, []byte(flushAckPrefix))
	if digits, post := bytes.CutSuffix(digits, []byte("}")); pre && post && len(digits) > 0 && (digits[0] != '0' || len(digits) == 1) {
		if fed, err := strconv.ParseUint(string(digits), 10, 64); err == nil {
			return fed, nil
		}
	}
	return 0, fmt.Errorf("not {\"fed\":N}: %q", payload)
}

// ServeTCP accepts raw-TCP wire-protocol connections until the listener
// closes. Each connection carries one session; connection handling is
// panic-isolated, so a protocol bug on one connection cannot take the
// acceptor down.
func (s *Server) ServeTCP(lis net.Listener) error {
	front := &Front{
		Logger: s.cfg.Logger, Tracer: s.cfg.Tracer, IOTimeout: s.cfg.IOTimeout, WrapConn: s.cfg.WrapConn,
		SpanName:     "raced.conn",
		ConnTimeouts: s.metrics.connTimeouts, CorruptFrames: s.metrics.corruptFrames,
		Open: func(ctx context.Context, hello *HelloPayload) (Stream, AckPayload, error) {
			att, ack, err := s.Attach(ctx, hello)
			if err != nil {
				return nil, ack, err
			}
			return att, ack, nil
		},
	}
	return front.Serve(lis)
}

// Serve is the accept loop raced and the fleet router share: it serves
// every accepted connection on its own goroutine until the listener closes
// (a nil return). Transient accept failures (fd exhaustion under load) are
// retried with capped backoff instead of killing a multi-tenant front end;
// any other accept error is returned.
func (f *Front) Serve(lis net.Listener) error {
	delay := 5 * time.Millisecond
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() || isTemporaryAcceptError(err) {
				f.Logger.Warn("accept failed, retrying", "err", err, "delay", delay)
				time.Sleep(delay)
				if delay *= 2; delay > time.Second {
					delay = time.Second
				}
				continue
			}
			return err
		}
		delay = 5 * time.Millisecond
		go f.serveConn(conn)
	}
}

// isTemporaryAcceptError recognizes accept failures worth riding out: the
// per-connection resource exhaustion errnos that clear once load drops.
func isTemporaryAcceptError(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.ENOBUFS)
}

// Stream is one session as the protocol loop drives it: raced's is an
// Attachment, the fleet router's forwards to a backend, a test's is
// scripted. The loop ends every stream it opened with Close or Drop.
type Stream interface {
	// Events consumes the n-byte body of an Events frame waiting in br and
	// hands it to the session. readErr is a failure to take the frame in —
	// the connection's, a checksum's, a malformed body's
	// (trace.ErrBadRecords), and nothing of such a frame reaches the
	// session; err is the session refusing it.
	Events(br *bufio.Reader, n int) (readErr, err error)
	// Flush is the sync barrier, returning the offset it acknowledges. Its
	// spans parent under parent; zero means the connection's span.
	Flush(parent tracing.SpanContext) (fed uint64, err error)
	// Close ends the stream and returns the canonical report JSON.
	Close() (report []byte, err error)
	// Drop lets go of a stream that will see no EOF frame. cause says why,
	// and wraps ErrConnLost when only the connection is at fault.
	Drop(cause error)
}

// Front is what a front end brings to the protocol loop: the connection
// settings raced and racefleet configure alike, then what differs between
// serving a session and proxying one.
type Front struct {
	Logger    *slog.Logger
	Tracer    *tracing.Tracer
	IOTimeout time.Duration
	WrapConn  func(net.Conn) net.Conn

	// SpanName names the connection's root span.
	SpanName string
	// Open resolves a validated hello to its stream and the ack to send;
	// ctx carries the trace context the session's spans parent under.
	Open func(ctx context.Context, hello *HelloPayload) (Stream, AckPayload, error)
	// Redirects, when set, makes a mid-stream failure that resuming heals
	// (Condition.Resumable) earn a counted Redirect frame in place of the
	// Error frame: the router's answer when a session moved or lost its
	// backend.
	Redirects *obs.Counter
	// ConnTimeouts counts connections cut by the I/O deadline, CorruptFrames
	// frames refused by their checksum.
	ConnTimeouts, CorruptFrames *obs.Counter
}

// serveConn runs one wire-protocol session over conn — the one reader of
// the protocol's client-to-server half, for raced and racefleet alike.
func (f *Front) serveConn(conn net.Conn) {
	defer conn.Close()
	var st Stream
	defer func() {
		if r := recover(); r != nil {
			// Connection handling must never crash the server — but a
			// panic here is a server-side protocol bug, so leave a trace.
			f.Logger.Error("connection handler panic", "remote", conn.RemoteAddr(), "panic", r)
			if st != nil {
				st.Drop(fmt.Errorf("%w: connection handler panic: %v", ErrConnLost, r))
			}
		}
	}()
	// Seam order matters: the fault injector (if any) wraps the raw socket,
	// and the deadline layer sits on top, so injected stalls hit the same
	// timeout an organic stall would.
	wrapped := conn
	if f.WrapConn != nil {
		wrapped = f.WrapConn(wrapped)
	}
	if f.IOTimeout > 0 {
		wrapped = &deadlineConn{Conn: wrapped, timeout: f.IOTimeout}
	}
	br := bufio.NewReaderSize(wrapped, 1<<16)
	bw := bufio.NewWriterSize(wrapped, 1<<16)

	// send writes one reply frame and flushes it: replies are the only
	// flush points, an Events frame never is.
	send := func(t wire.Type, payload []byte) error {
		if err := wire.WriteFrame(bw, t, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	sendErr := func(err error) {
		send(wire.TError, wire.EncodeError(Classify(err).WireCode(), err.Error()))
	}
	// reply answers a stream's mid-session error: a Redirect when the front
	// end sends them and resuming heals it, else the typed error.
	reply := func(err error) {
		if f.Redirects == nil || !Classify(err).Resumable() {
			sendErr(err)
			return
		}
		f.Redirects.Inc()
		send(wire.TRedirect, nil)
	}
	// noteReadErr attributes a dead read to the fault counters and, for a
	// deadline cut, tells the client why (the write side often still works
	// when only the read stalled).
	noteReadErr := func(err error) {
		switch Classify(err).Code {
		case wire.CodeCorrupt:
			f.CorruptFrames.Inc()
		case wire.CodeTimeout:
			f.ConnTimeouts.Inc()
			sendErr(err)
		}
	}

	// Control frames are read into one buffer (payload, starting with the
	// hello's), reused for the connection's lifetime.
	t, payload, err := wire.ReadFrame(br)
	if err != nil {
		noteReadErr(err)
		return
	}
	if t != wire.THello {
		sendErr(fmt.Errorf("%w: expected hello frame, got %v", ErrProto, t))
		return
	}
	var hello HelloPayload
	if err := json.Unmarshal(payload, &hello); err != nil {
		sendErr(fmt.Errorf("%w: bad hello payload: %v", ErrProto, err))
		return
	}
	if hello.Proto != wire.Proto {
		sendErr(fmt.Errorf("%w: unsupported protocol version %d (want %d)", ErrProto, hello.Proto, wire.Proto))
		return
	}

	// The connection span is this process's root: it adopts the client's
	// trace when the hello carried one (invalid/absent parses to a zero
	// context and starts a fresh trace), and the session's spans parent
	// under it unless a frame brings its own context. With tracing off the
	// client's context is still handed on untouched.
	ctx := context.Background()
	remoteSC, _ := tracing.ParseTraceparent(hello.Trace)
	connSpan := f.Tracer.Root(f.SpanName, remoteSC)
	connSpan.SetAttr("remote", conn.RemoteAddr().String())
	defer connSpan.End()
	if connSpan != nil {
		ctx = tracing.ContextWith(ctx, connSpan.Context())
	} else if remoteSC.Valid() {
		ctx = tracing.ContextWith(ctx, remoteSC)
	}
	if hello.Resume != "" {
		connSpan.SetAttr("resume", hello.Resume)
	}
	var ack AckPayload
	if st, ack, err = f.Open(ctx, &hello); err != nil {
		connSpan.SetError(err)
		sendErr(err)
		return
	}
	connSpan.SetAttr("session", ack.Session)
	doc, _ := json.Marshal(ack)
	if err := send(wire.TAck, doc); err != nil {
		st.Drop(fmt.Errorf("%w: %w", ErrConnLost, err))
		return
	}

	for {
		t, n, err := wire.ReadHeader(br)
		var serr error
		switch {
		case err != nil:
		case t == wire.TEvents:
			err, serr = st.Events(br, n)
		default:
			payload, err = wire.ReadBody(br, t, n, payload)
		}
		if errors.Is(err, trace.ErrBadRecords) {
			err = fmt.Errorf("%w: %v", ErrProto, err)
			st.Drop(err)
			sendErr(err)
			return
		}
		if err != nil {
			// Client vanished mid-session (including clean EOF without the
			// EOF frame): the front end frees the slot or leaves a durable
			// session resumable rather than waiting for idle eviction.
			noteReadErr(err)
			st.Drop(fmt.Errorf("%w: %w", ErrConnLost, err))
			return
		}
		switch t {
		case wire.TEvents:
			if serr != nil {
				// Sticky ingestion error: report it and end the session.
				st.Drop(serr)
				reply(serr)
				return
			}
		case wire.TFlush:
			// Best-effort: an empty or undecodable payload (old client)
			// just means the barrier spans parent under the connection.
			var fp FlushPayload
			if len(payload) > 0 {
				json.Unmarshal(payload, &fp)
			}
			fsc, _ := tracing.ParseTraceparent(fp.Trace)
			fed, err := st.Flush(fsc)
			if err != nil {
				st.Drop(err)
				reply(err)
				return
			}
			doc, _ := json.Marshal(FlushAckPayload{Fed: fed})
			if err := send(wire.TFlushAck, doc); err != nil {
				st.Drop(fmt.Errorf("%w: %w", ErrConnLost, err))
				return
			}
		case wire.TEOF:
			doc, err := st.Close()
			if err != nil {
				reply(err)
				return
			}
			if err := send(wire.TReport, doc); err != nil {
				// A report too large for one frame (or a dying connection)
				// must not be dropped silently: tell the client why. The
				// session's report remains fetchable over HTTP.
				sendErr(fmt.Errorf("server: sending report for %s: %w", ack.Session, err))
			}
			return
		default:
			err := fmt.Errorf("%w: unexpected %v frame mid-session", ErrProto, t)
			st.Drop(err)
			sendErr(err)
			return
		}
	}
}

// Attach is the one way into a session for whoever drives it — ServeTCP's
// connections and an in-process fleet backend, for as long as they last: it
// opens the session hello asks for (fresh, under a requested id, or one
// resumed) and claims it. The ack carries the id and the accepted offset.
func (s *Server) Attach(ctx context.Context, hello *HelloPayload) (Attachment, AckPayload, error) {
	var sess *Session
	if hello.Resume == "" {
		var err error
		if sess, err = s.open(hello.SessionID, hello.Session); err != nil {
			return Attachment{}, AckPayload{}, err
		}
	} else if live, ok := s.Session(hello.Resume); ok {
		// Resumption re-attaches to a live session — journal-recovered
		// after a restart, or orphaned by a dropped connection.
		sess = live
	} else if fin, ok := s.Finished(hello.Resume); ok && fin.closedErr() == ErrSessionClosed {
		// A cleanly closed session attaches as it ended, at its final
		// offset, so that a client whose close reply was lost can ask
		// again: events and flushes answer closed, EOF the close reply.
		sess = fin
	} else if ok && !Classify(fin.closedErr()).Resumable() {
		// A session that ended on its sticky error answers with it, so
		// that no caller (a router included) goes looking for it on disk.
		// A suspended or evicted one is still unknown here: it resumes
		// from its journal.
		return Attachment{}, AckPayload{}, fmt.Errorf("resuming %s: %w", hello.Resume, fin.closedErr())
	} else {
		return Attachment{}, AckPayload{}, fmt.Errorf("%w: %s", ErrUnknown, hello.Resume)
	}
	att, err := sess.claim(ctx)
	if err != nil {
		if hello.Resume == "" {
			sess.abort(err) // unreachable for a fresh id, but never leak the slot
		}
		return Attachment{}, AckPayload{}, err
	}
	return att, AckPayload{Session: sess.ID, Fed: sess.Fed()}, nil
}

// claim makes the caller the session's one driver — a wire connection, an
// in-process fleet backend or a one-shot POST /ingest, for its lifetime; at
// most one drives a session at a time, keeping the journaled stream a single
// client's view. It answers ErrBusy when another holds the session and the
// sticky error of one already failed; from here on the session's ingest
// spans parent under ctx's trace context (the driver's connection, route or
// request span) unless a frame brings its own.
func (sess *Session) claim(ctx context.Context) (Attachment, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch {
	case sess.attached:
		return Attachment{}, ErrBusy
	case sess.err != nil:
		return Attachment{}, sess.err
	}
	sess.attached = true
	if sc := tracing.FromContext(ctx); sc.Valid() {
		sess.traceCtx = sc
	}
	return Attachment{sess}, nil
}

// Attachment is a session claimed by its one driver (Server.Attach) — the
// server's Stream. Every claim ends in Close or Drop, which release it, so a
// memory-only session lives exactly as long as its driver.
type Attachment struct{ sess *Session }

// ingestBatch is how many events ingest decodes per batch.
const ingestBatch = 4096

// ingest drains dec — a trace file of unknown length, such as a request
// body — into the session through its slab, ingestBatch events at a time.
// readErr is dec failing, and nothing of that batch reaches the session; err
// is the session refusing a batch.
func (a Attachment) ingest(dec *trace.Decoder) (readErr, err error) {
	if cap(a.sess.slab) < ingestBatch {
		a.sess.slab = make([]race.Event, ingestBatch)
	}
	slab := a.sess.slab[:ingestBatch]
	for {
		n := 0
		for ; n < ingestBatch; n++ {
			if slab[n], readErr = dec.Next(); readErr != nil {
				break
			}
		}
		if readErr != nil && readErr != io.EOF {
			return readErr, nil
		}
		if err := a.sess.feed(tracing.SpanContext{}, slab[:n]); err != nil || readErr != nil {
			return nil, err
		}
	}
}

// Events decodes the frame body straight out of br into the session's slab
// and applies it; the connection reads its next frame only after that — its
// backpressure.
func (a Attachment) Events(br *bufio.Reader, n int) (readErr, err error) {
	evs, readErr := wire.ReadEvents(br, n, a.sess.slab)
	if readErr != nil {
		return readErr, nil
	}
	a.sess.slab = evs
	return nil, a.sess.feed(tracing.SpanContext{}, evs)
}

// FeedRecords applies recs — the body of one Events frame, already off the
// wire — through the same slab. recs is not kept.
func (a Attachment) FeedRecords(recs []byte) error {
	n := len(recs) / trace.RecordSize
	if n*trace.RecordSize != len(recs) {
		return fmt.Errorf("%w: %v", ErrProto, trace.RaggedRecords(len(recs)))
	}
	if cap(a.sess.slab) < n {
		a.sess.slab = make([]race.Event, n)
	}
	slab := a.sess.slab[:n]
	if i := trace.GetRecords(slab, recs); i >= 0 {
		return fmt.Errorf("%w: %v", ErrProto, trace.BadRecord(i, slab[i].Op))
	}
	return a.sess.feed(tracing.SpanContext{}, slab)
}

func (a Attachment) Flush(parent tracing.SpanContext) (uint64, error) {
	if err := a.sess.flushCtx(parent); err != nil {
		return 0, err
	}
	return a.sess.Fed(), nil
}

// Close returns the report in the encoding of the HTTP API (serveReport),
// so it is byte-identical whichever way it is fetched — on a durable
// server, the very bytes of report.json.
func (a Attachment) Close() ([]byte, error) {
	defer a.sess.detach()
	return a.sess.closeDoc()
}

// Drop reads the journal-fate column of cause's condition: a durable
// session whose journal stays open (a lost connection) is left live and
// resumable — the journal is the source of truth; any other cause ends the
// session, and a memory-only one frees its slot at once whatever the cause.
func (a Attachment) Drop(cause error) {
	if a.sess.jlog == nil || Classify(cause).Fate != KeepOpen {
		a.sess.abort(cause)
	}
	a.sess.detach()
}
