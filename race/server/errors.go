package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"

	"repro/internal/wire"
)

// This file is the service's error contract, written once. Every layer —
// TError frames, the HTTP API, ReliableSession, the fleet router,
// racechaos, Session.run — reads a column of conditions through Classify;
// none keeps a classifier of its own. The README's "Errors" table is
// rendered from the same rows.

// Errors returned by the session manager and the wire client. Each is the
// Sentinel of one row of conditions; a server-reported condition unwraps to
// the same sentinel on the client side (RemoteFault), so errors.Is reaches
// across the wire.
var (
	ErrServerFull    = errors.New("server: session limit reached, try again later")
	ErrServerClosed  = errors.New("server: server is shut down")
	ErrSessionClosed = errors.New("server: session is closed")
	ErrEvicted       = errors.New("server: session evicted after idle timeout")
	ErrSuspended     = errors.New("server: session suspended (journal preserved; resume to continue)")
	ErrBusy          = errors.New("server: session is attached to another connection")
	ErrUnknown       = errors.New("server: unknown session")
	ErrDraining      = errors.New("server: draining, not accepting new sessions")
	ErrIDTaken       = errors.New("server: session id already in use")
	// ErrDiskFault marks a session killed by journal I/O (failed append,
	// fsync, or metadata write); the server — still healthy for every other
	// tenant — reports itself degraded on /healthz.
	ErrDiskFault = errors.New("server: session failed on disk I/O")
	// ErrProto marks a protocol violation detected by whoever reads the
	// frames, raced or the fleet router.
	ErrProto = errors.New("server: protocol violation")
	// ErrHandoff is the sticky session error after a Redirect frame: a fleet
	// router is moving the session to another backend. The session id remains
	// valid — reconnect (through the router) and Resume it; the new ack's
	// offset says where to pick up. ReliableSession does this automatically.
	ErrHandoff = errors.New("server: session handed off; reconnect and resume to continue")
	// ErrConnLost marks a failure of the connection rather than of the
	// session; the fleet's backend-down error wraps it.
	ErrConnLost = errors.New("server: connection lost")
)

// Recovery is what a holder of the session does about a condition.
type Recovery uint8

const (
	// Permanent: nothing to retry; the error is final for this session.
	Permanent Recovery = iota
	// Reconnect: the connection or the peer failed, the session did not.
	// A client reconnects and resumes at the acked offset; a router also
	// marks the backend down and goes on to the next one.
	Reconnect
	// Resume: the session was cut loose with its journal intact. A client
	// reconnects and resumes; a router answers its client with a Redirect.
	Resume
	// RetryResume: a resume was refused for a reason that clears on its own
	// (the target has not recovered the journal yet; the server has not
	// reaped the dead connection yet): retry it after a backoff.
	RetryResume
	// Failover: this server admits no session now; a router tries the next
	// backend on the ring. To a client of a single server it is permanent.
	Failover
)

// Fate is what the session actor leaves on disk when a durable session ends
// on a condition (Session.run).
type Fate uint8

const (
	// KeepOpen: the journal is sealed and the session stays "open" on disk;
	// a restarted server, or a migration target, resumes it.
	KeepOpen Fate = iota
	// Quarantine: the journal can no longer be trusted (a failed append or
	// sync may have left it short of what the client believes is acked), so
	// the session directory moves aside where no restart resurrects it.
	Quarantine
	// MarkAborted: session.json records a terminal state; recovery skips it.
	MarkAborted
)

var (
	recoveryText = [...]string{"give up", "reconnect and resume (a router marks the backend down)",
		"reconnect and resume (a router redirects its client)",
		"retry the resume after a backoff", "try another backend (a router does; else give up)"}
	fateText = [...]string{"stays open (resumable)", "quarantined", "marked aborted"}
)

func (r Recovery) String() string { return recoveryText[r] }
func (f Fate) String() string     { return fateText[f] }

// Condition is one row of the error contract.
type Condition struct {
	Code     wire.ErrCode // "" when no TError frame carries it; sent as internal
	Sentinel error        // the local error standing for it (nil: none)
	Status   int          // HTTP status of an API error
	Label    string       // what racechaos reports call it
	Recovery Recovery
	Fate     Fate
	Meaning  string
}

// conditions is the table. Order matters where a chain matches two
// sentinels: the first row wins, so a lost connection whose cause was a
// corrupt frame or a deadline cut classifies as that cause.
var conditions = [...]Condition{
	{wire.CodeUnknownSession, ErrUnknown, http.StatusNotFound, "unknown_session", RetryResume, KeepOpen,
		"the session id is not open here (nor, on a durable server, on disk)"},
	{wire.CodeBusy, ErrBusy, http.StatusConflict, "busy", RetryResume, KeepOpen,
		"the session is attached to another connection or request"},
	{wire.CodeSuspended, ErrSuspended, http.StatusInternalServerError, "suspended", Resume, KeepOpen,
		"the session was suspended for migration or shutdown"},
	{wire.CodeEvicted, ErrEvicted, http.StatusConflict, "evicted", Resume, KeepOpen,
		"the session was evicted after the idle timeout; only its pool slot is reclaimed"},
	{wire.CodeDraining, ErrDraining, http.StatusServiceUnavailable, "draining", Failover, MarkAborted,
		"the server is draining and admits no new session"},
	{wire.CodeFull, ErrServerFull, http.StatusTooManyRequests, "server_full", Failover, MarkAborted,
		"the session table is at capacity"},
	{wire.CodeShutdown, ErrServerClosed, http.StatusServiceUnavailable, "server_closed", Failover, MarkAborted,
		"the server is closed"},
	{wire.CodeClosed, ErrSessionClosed, http.StatusConflict, "session_closed", Permanent, MarkAborted,
		"the session already finished"},
	{wire.CodeIDTaken, ErrIDTaken, http.StatusConflict, "id_taken", Permanent, MarkAborted,
		"the requested session id is in use"},
	{wire.CodeIO, ErrDiskFault, http.StatusInternalServerError, "disk_fault", Permanent, Quarantine,
		"the session failed on journal I/O; its error is sticky"},
	{wire.CodeCorrupt, wire.ErrCorruptFrame, http.StatusInternalServerError, "remote_corrupt", Resume, KeepOpen,
		"a frame failed its checksum; the connection is dropped"},
	{wire.CodeTimeout, os.ErrDeadlineExceeded, http.StatusInternalServerError, "remote_timeout", Resume, KeepOpen,
		"the connection stalled past the I/O deadline and was cut"},
	{wire.CodeProto, ErrProto, http.StatusInternalServerError, "remote_proto", Permanent, MarkAborted,
		"the peer violated the protocol (version, frame sequence, undecodable payload)"},
	{wire.CodeInternal, nil, http.StatusInternalServerError, "remote_internal", Permanent, MarkAborted,
		"any other failure (ill-formed stream, analysis error or panic, bad configuration)"},
	{"", ErrHandoff, http.StatusInternalServerError, "handoff", Resume, KeepOpen,
		"a router answered with a Redirect frame: the session is moving"},
	{"", context.DeadlineExceeded, http.StatusInternalServerError, "timeout", Reconnect, KeepOpen,
		"the caller's own deadline expired before the peer answered"},
	{"", context.Canceled, http.StatusInternalServerError, "canceled", Permanent, MarkAborted,
		"the caller canceled the operation"},
	{"", ErrConnLost, http.StatusInternalServerError, "conn", Reconnect, KeepOpen,
		"the connection failed or the peer is unreachable"},
}

// WireCode is the code a TError frame or ErrorCodeHeader carries for c.
func (c Condition) WireCode() wire.ErrCode {
	if c.Code == "" {
		return wire.CodeInternal
	}
	return c.Code
}

// Resumable reports whether a holder of the session should reconnect and
// resume it now.
func (c Condition) Resumable() bool { return c.Recovery == Reconnect || c.Recovery == Resume }

// byCode finds the row a wire code names.
func byCode(code wire.ErrCode) (Condition, bool) {
	for _, c := range conditions {
		if c.Code == code && code != "" {
			return c, true
		}
	}
	return Condition{}, false
}

// Classify resolves an error chain to its row: the code of a typed remote
// error first, then the first row whose sentinel the chain wraps, then the
// transport predicate, else internal — with an empty Label, because nothing
// in the chain is typed (which is also what nil gets).
func Classify(err error) Condition {
	if c, ok := byCode(RemoteErrorCode(err)); ok {
		return c
	}
	for _, c := range conditions {
		if c.Sentinel != nil && errors.Is(err, c.Sentinel) {
			return c
		}
	}
	if connLost(err) {
		return Classify(ErrConnLost)
	}
	c, _ := byCode(wire.CodeInternal)
	c.Label = ""
	return c
}

// connLost is the transport predicate: the errors a dead, refused or
// unroutable connection produces. The client retry loop and the router
// both test for it.
func connLost(err error) bool {
	for _, e := range [...]error{io.EOF, io.ErrUnexpectedEOF, net.ErrClosed,
		syscall.ECONNRESET, syscall.EPIPE, syscall.ECONNREFUSED,
		syscall.EHOSTUNREACH, syscall.ENETUNREACH, syscall.ETIMEDOUT} {
		if errors.Is(err, e) {
			return true
		}
	}
	// Anything else the net package reports (*net.OpError, *net.DNSError,
	// *url.Error, timeouts). A bare errno satisfies net.Error too, and one
	// not listed above (ENOSPC under a journal) is not a lost connection.
	var ne net.Error
	if !errors.As(err, &ne) {
		return false
	}
	_, errno := ne.(syscall.Errno)
	return !errno
}
