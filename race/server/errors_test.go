package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/wire"
	"repro/internal/workload"
)

// sameRow reports whether two classifications name the same row.
func sameRow(a, b Condition) bool { return a.Code == b.Code && a.Sentinel == b.Sentinel }

// TestConditionTableRoundTrips: the table is the spec. Every wire code has
// exactly one row; a row's code, sentinel, HTTP status and label are
// reachable from one another whichever side of the wire starts.
func TestConditionTableRoundTrips(t *testing.T) {
	codes := map[wire.ErrCode]bool{}
	labels := map[string]bool{}
	for _, c := range conditions {
		if c.Label == "" || labels[c.Label] {
			t.Errorf("row %q/%v: label %q empty or used twice", c.Code, c.Sentinel, c.Label)
		}
		labels[c.Label] = true
		if c.Meaning == "" || c.Status == 0 {
			t.Errorf("row %s: missing meaning or status", c.Label)
		}
		local := error(nil)
		if c.Sentinel != nil {
			// sentinel → row, through a wrapping chain as the layers produce them
			local = fmt.Errorf("op: %w", c.Sentinel)
			if got := Classify(local); !sameRow(got, c) {
				t.Errorf("Classify(%v) = row %s, want %s", local, got.Label, c.Label)
			}
		}
		if c.Code == "" {
			if c.WireCode() != wire.CodeInternal {
				t.Errorf("row %s: code-less row travels as %q, want internal", c.Label, c.WireCode())
			}
		} else {
			if codes[c.Code] {
				t.Errorf("code %q has two rows", c.Code)
			}
			codes[c.Code] = true
			// code → RemoteFault → row, and across the wire to the sentinel
			remote := RemoteFault(c.Code, "remote says so")
			if got := Classify(remote); !sameRow(got, c) || got.Label != c.Label {
				t.Errorf("Classify(RemoteFault(%q)) = row %s, want %s", c.Code, got.Label, c.Label)
			}
			if c.Sentinel != nil && !errors.Is(remote, c.Sentinel) {
				t.Errorf("RemoteFault(%q) does not unwrap to %v", c.Code, c.Sentinel)
			}
			if RemoteErrorCode(remote) != c.Code || c.WireCode() != c.Code {
				t.Errorf("code %q does not survive the round trip", c.Code)
			}
			// a TError payload decodes to the same row
			if got := Classify(decodeRemoteError(wire.EncodeError(c.Code, "m"))); !sameRow(got, c) {
				t.Errorf("TError %q decodes to row %s", c.Code, got.Label)
			}
			if local == nil {
				local = remote
			}
		}
		// The HTTP API answers the row's status and carries its code.
		rec := httptest.NewRecorder()
		HTTPError(rec, local)
		if rec.Code != c.Status || rec.Header().Get(wire.ErrorCodeHeader) != string(c.WireCode()) {
			t.Errorf("HTTPError(%v) = %d [%s], want %d [%s]", local, rec.Code,
				rec.Header().Get(wire.ErrorCodeHeader), c.Status, c.WireCode())
		}
	}
	for _, code := range []wire.ErrCode{wire.CodeUnknownSession, wire.CodeBusy, wire.CodeSuspended,
		wire.CodeEvicted, wire.CodeDraining, wire.CodeFull, wire.CodeShutdown, wire.CodeClosed,
		wire.CodeIDTaken, wire.CodeIO, wire.CodeCorrupt, wire.CodeProto, wire.CodeTimeout, wire.CodeInternal} {
		if !codes[code] {
			t.Errorf("wire code %q has no row", code)
		}
	}
	// Untyped (and nil) errors are internal with no label: a harness violation.
	for _, err := range []error{nil, errors.New("analysis blew up"), RemoteFault("", "legacy text")} {
		if c := Classify(err); c.Code != wire.CodeInternal || c.Label != "" || c.Recovery != Permanent {
			t.Errorf("Classify(%v) = %+v, want unlabeled internal", err, c)
		}
	}
	// A code from a newer peer keeps its message and is internal to us.
	if c := Classify(RemoteFault("from-the-future", "x")); c.Code != wire.CodeInternal {
		t.Errorf("unknown remote code classified as %q", c.Code)
	}
}

// TestClassifyTransport pins the one transport predicate the retry loop and
// the router share, and each disagreement the table resolved.
func TestClassifyTransport(t *testing.T) {
	opErr := func(errno syscall.Errno) error {
		return &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", errno)}
	}
	for _, err := range []error{
		io.EOF, io.ErrUnexpectedEOF, net.ErrClosed,
		syscall.ECONNRESET, syscall.EPIPE, syscall.ECONNREFUSED, // bare, as fault.Gate wraps them
		syscall.EHOSTUNREACH, syscall.ENETUNREACH, syscall.ETIMEDOUT,
		opErr(syscall.ECONNRESET), opErr(syscall.EADDRNOTAVAIL), // any *net.OpError
		&net.DNSError{Err: "no such host", Name: "backend"},
		fmt.Errorf("server: dialing raced: %w", opErr(syscall.ECONNREFUSED)),
		ErrConnLost,
	} {
		if c := Classify(err); c.Label != "conn" || c.Recovery != Reconnect || c.Fate != KeepOpen {
			t.Errorf("Classify(%v) = %s/%v, want conn/reconnect", err, c.Label, c.Recovery)
		}
	}
	for _, tc := range []struct {
		err   error
		label string
		rec   Recovery
	}{
		// A disk errno is not a lost connection, bare or inside a PathError.
		{syscall.ENOSPC, "", Permanent},
		{&os.PathError{Op: "write", Path: "journal", Err: syscall.EIO}, "", Permanent},
		{fmt.Errorf("%w: journaling batch: %w", ErrDiskFault, syscall.ENOSPC), "disk_fault", Permanent},
		// A lost connection classifies by its cause when it has a typed one.
		{fmt.Errorf("%w: %w", ErrConnLost, wire.ErrCorruptFrame), "remote_corrupt", Resume},
		{fmt.Errorf("%w: %w", ErrConnLost, os.ErrDeadlineExceeded), "remote_timeout", Resume},
		// The caller's own deadline is its own row, though it is a net.Error.
		{context.DeadlineExceeded, "timeout", Reconnect},
		{context.Canceled, "canceled", Permanent},
		{ErrHandoff, "handoff", Resume},
	} {
		if c := Classify(tc.err); c.Label != tc.label || c.Recovery != tc.rec {
			t.Errorf("Classify(%v) = %q/%v, want %q/%v", tc.err, c.Label, c.Recovery, tc.label, tc.rec)
		}
	}
}

// TestResumeInvariant is the property the whole resume story rests on: a
// condition whose holder is told to resume must be one the actor leaves
// resumable on disk.
func TestResumeInvariant(t *testing.T) {
	for _, c := range conditions {
		if (c.Resumable() || c.Recovery == RetryResume) && c.Fate != KeepOpen {
			t.Errorf("row %s: recovery %q but the journal is %q", c.Label, c.Recovery, c.Fate)
		}
	}
}

// TestConditionFatesEndToEnd runs the invariant against a real durable
// server over TCP: a session ended by each resumable condition resumes at
// its acked offset and finishes byte-identical to batch analysis, a disk
// fault quarantines the journal, a permanent error marks it aborted — and in
// every case the code the client sees and the state on disk are the ones
// the condition's row names.
func TestConditionFatesEndToEnd(t *testing.T) {
	names := []string{"ST-WDC"}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 13, Threads: 4, Chans: 2, MaxCap: 2, Locks: 1, Vars: 4, Events: 1000,
	})
	want := batchReport(t, tr, names)
	mid := len(tr.Events) / 2
	now := time.Now()

	type env struct {
		t    *testing.T
		s    *Server
		dir  string
		conn net.Conn
		c    *Client
		sess *RemoteSession
	}
	// readErr waits for the server's verdict on the connection.
	readErr := func(e *env) error {
		e.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		ty, payload, err := wire.ReadFrame(e.c.br)
		if err != nil {
			return err
		}
		if ty != wire.TError {
			e.t.Fatalf("server answered %v (%s), want an error", ty, payload)
		}
		return decodeRemoteError(payload)
	}
	for _, tc := range []struct {
		name   string
		label  string             // the row the client's error classifies as
		cfg    func(*Config)      // server configuration the case needs
		end    func(*env) error   // ends the session; returns what the client saw
		revive func(*env) *Server // what makes it attachable again (nil: it still is)
	}{
		{name: "evicted", label: "evicted",
			cfg: func(c *Config) { c.IdleTimeout = time.Minute; c.now = func() time.Time { return now } },
			end: func(e *env) error {
				if n := e.s.EvictIdle(now.Add(2 * time.Minute)); n != 1 {
					e.t.Fatalf("evicted %d sessions, want 1", n)
				}
				return e.sess.Flush()
			},
			revive: func(e *env) *Server { // only its slot was reclaimed: a restart brings it back
				e.s.Close()
				s2 := New(Config{DataDir: e.dir, IdleTimeout: -1})
				if _, err := s2.Recover(); err != nil {
					e.t.Fatal(err)
				}
				return s2
			}},
		{name: "suspended", label: "suspended",
			end: func(e *env) error {
				if _, err := e.s.SuspendSession(e.sess.ID()); err != nil {
					e.t.Fatal(err)
				}
				return e.sess.Flush()
			},
			revive: func(e *env) *Server {
				if err := e.s.RecoverSession(context.Background(), e.sess.ID()); err != nil {
					e.t.Fatal(err)
				}
				return e.s
			}},
		{name: "timeout-cut", label: "remote_timeout",
			cfg: func(c *Config) { c.IOTimeout = 250 * time.Millisecond },
			end: func(e *env) error { return readErr(e) }}, // stall until the server cuts us
		{name: "corrupt-frame", label: "conn", // the server drops the connection without a reply
			end: func(e *env) error {
				var b bytes.Buffer
				wire.WriteFrame(&b, wire.TEvents, wire.AppendEvents(nil, tr.Events[mid:mid+8]))
				frame := b.Bytes()
				frame[9] ^= 0x04
				e.conn.Write(frame)
				err := readErr(e)
				if n := e.s.metrics.corruptFrames.Value(); n != 1 {
					e.t.Errorf("raced_corrupt_frames_total = %d, want 1", n)
				}
				return err
			}},
		{name: "dropped-connection", label: "conn",
			end: func(e *env) error { e.conn.Close(); return readErr(e) }},
		{name: "disk-fault", label: "disk_fault",
			cfg: func(c *Config) {
				c.FS = fault.NewInjectFS(fault.OS{}, fault.FSPlan{ENOSPCAfter: 9 << 10})
			},
			end: func(e *env) error {
				if err := e.sess.FeedBatch(tr.Events[mid:]); err != nil {
					return err
				}
				return e.sess.Flush()
			}},
		{name: "protocol-violation", label: "remote_proto",
			end: func(e *env) error {
				wire.WriteFrame(e.conn, wire.THello, nil)
				return readErr(e)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{DataDir: t.TempDir(), IdleTimeout: -1}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			s, addr := startTCP(t, cfg)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			e := &env{t: t, s: s, dir: cfg.DataDir, conn: conn, c: NewClient(conn)}
			if e.sess, err = e.c.Open(SessionConfig{Analyses: names}); err != nil {
				t.Fatal(err)
			}
			id := e.sess.ID()
			if err := e.sess.FeedBatch(tr.Events[:mid]); err != nil {
				t.Fatal(err)
			}
			if err := e.sess.Flush(); err != nil || e.sess.Flushed() != uint64(mid) {
				t.Fatalf("flush acked %d (err %v), want %d", e.sess.Flushed(), err, mid)
			}

			row := Classify(tc.end(e))
			if row.Label != tc.label {
				t.Fatalf("client saw row %q, want %q", row.Label, tc.label)
			}

			// What is on disk is what the row's Fate says.
			sessDir := filepath.Join(cfg.DataDir, "sessions", id)
			switch row.Fate {
			case Quarantine:
				if _, err := os.Stat(filepath.Join(cfg.DataDir, "quarantine", id)); err != nil {
					t.Errorf("quarantined dir missing: %v", err)
				}
				if _, err := os.Stat(sessDir); !os.IsNotExist(err) {
					t.Errorf("session dir still under sessions/ (err=%v)", err)
				}
			default:
				state := map[Fate]string{KeepOpen: stateOpen, MarkAborted: stateAborted}[row.Fate]
				if meta, err := readSessionMeta(fault.OS{}, sessDir); err != nil || meta.State != state {
					t.Errorf("session.json state %q (err %v), want %q", meta.State, err, state)
				}
			}
			if !row.Resumable() {
				if _, ok := s.Session(id); ok {
					t.Errorf("a session ended by a permanent condition is still live")
				}
				return
			}

			// Resume — retrying while the server still sees the old connection
			// attached — at exactly the acked offset, and finish the stream.
			if tc.revive != nil {
				if s2 := tc.revive(e); s2 != s {
					lis, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					go s2.ServeTCP(lis)
					t.Cleanup(func() { lis.Close(); s2.Close() })
					addr = lis.Addr().String()
				}
			}
			var (
				sess2 *RemoteSession
				fed   uint64
			)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				c2, err := Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c2.Close()
				if sess2, fed, err = c2.Resume(context.Background(), id); err == nil {
					break
				}
				if Classify(err).Recovery != RetryResume || time.Now().After(deadline) {
					t.Fatalf("resume: %v", err)
				}
			}
			if fed != uint64(mid) {
				t.Fatalf("resumed at offset %d, want the acked %d", fed, mid)
			}
			if err := sess2.FeedBatch(tr.Events[fed:]); err != nil {
				t.Fatal(err)
			}
			got, err := sess2.CloseJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed report differs from batch analysis")
			}
		})
	}
}

// TestREADMEErrorTable keeps the README's "Errors" table a rendering of the
// rows: a row added, or a column changed, fails here until the README says
// the same thing.
func TestREADMEErrorTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	table.WriteString("| code | meaning | HTTP | what a holder of the session does | journal of a durable session that ends on it |\n")
	table.WriteString("|---|---|---|---|---|\n")
	for _, c := range conditions {
		code := "—"
		if c.Code != "" {
			code = "`" + string(c.Code) + "`"
		}
		fmt.Fprintf(&table, "| %s | %s | %d | %s | %s |\n", code, c.Meaning, c.Status, c.Recovery, c.Fate)
	}
	if !strings.Contains(string(readme), table.String()) {
		t.Errorf("README.md \"Errors\" table is not the rendered condition table; it should read:\n\n%s", table.String())
	}
}
