package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race/server"
)

// spyBackend records the byte length of every FeedRecords call its sessions
// receive — what reached a backend, frame by frame.
type spyBackend struct {
	Backend
	mu     sync.Mutex
	frames []int
}

type spySession struct {
	Session
	b *spyBackend
}

func (b *spyBackend) Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error) {
	sess, err := b.Backend.Open(ctx, id, cfg)
	if err != nil {
		return nil, err
	}
	return &spySession{Session: sess, b: b}, nil
}

func (s *spySession) FeedRecords(recs []byte) error {
	s.b.mu.Lock()
	s.b.frames = append(s.b.frames, len(recs))
	s.b.mu.Unlock()
	return s.Session.FeedRecords(recs)
}

func (b *spyBackend) seen() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.frames...)
}

// rawClient speaks the wire protocol by hand, so a test controls the exact
// bytes of every frame.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	id   string
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) // a dead ingress fails the test, not hangs it
	defer conn.SetDeadline(time.Time{})
	c := &rawClient{conn: conn, br: bufio.NewReader(conn)}
	hello, _ := json.Marshal(server.HelloPayload{Proto: wire.Proto, Session: server.SessionConfig{Analyses: []string{"ST-WDC"}}})
	if err := wire.WriteFrame(conn, wire.THello, hello); err != nil {
		t.Fatal(err)
	}
	ty, payload, err := wire.ReadFrame(c.br)
	if err != nil || ty != wire.TAck {
		t.Fatalf("handshake: %v frame, err %v", ty, err)
	}
	var ack server.AckPayload
	if err := json.Unmarshal(payload, &ack); err != nil {
		t.Fatal(err)
	}
	c.id = ack.Session
	return c
}

// flush runs a flush barrier and returns the acked offset.
func (c *rawClient) flush(t *testing.T) uint64 {
	t.Helper()
	if err := wire.WriteFrame(c.conn, wire.TFlush, nil); err != nil {
		t.Fatal(err)
	}
	ty, payload, err := wire.ReadFrame(c.br)
	if err != nil || ty != wire.TFlushAck {
		t.Fatalf("flush: %v frame (%s), err %v", ty, payload, err)
	}
	var fa server.FlushAckPayload
	if err := json.Unmarshal(payload, &fa); err != nil {
		t.Fatal(err)
	}
	return fa.Fed
}

func startSpyFleet(t *testing.T) (*spyBackend, *server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1})
	t.Cleanup(func() { srv.Close() })
	spy := &spyBackend{Backend: NewLocal("only", srv)}
	rt, err := New([]Backend{spy}, Options{ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go rt.ServeTCP(lis)
	return spy, srv, lis.Addr().String()
}

// TestRouterForwardsFramesVerbatim: the router hands a backend exactly the
// frames the client sent — same boundaries, same bytes — so the offsets a
// flush acks are the client's own, and the backend's journal holds the
// client's records.
func TestRouterForwardsFramesVerbatim(t *testing.T) {
	spy, srv, addr := startSpyFleet(t)
	p, _ := workload.ProgramByName("avrora")
	evs := p.Generate(100000, 4).Events
	c := dialRaw(t, addr)

	var want []int
	sent := 0
	for i, n := range []int{100, 1, 2048, 777, 8192} {
		n = min(n, len(evs)-sent)
		if err := wire.WriteFrame(c.conn, wire.TEvents, wire.AppendEvents(nil, evs[sent:sent+n])); err != nil {
			t.Fatal(err)
		}
		sent += n
		want = append(want, n*trace.RecordSize)
		if i%2 == 1 {
			if fed := c.flush(t); fed != uint64(sent) {
				t.Fatalf("flush after %d events acked %d", sent, fed)
			}
		}
	}
	if fed := c.flush(t); fed != uint64(sent) {
		t.Fatalf("final flush acked %d, want %d", fed, sent)
	}
	got := spy.seen()
	if len(got) != len(want) {
		t.Fatalf("backend saw %d frames %v, client sent %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d reached the backend as %d bytes, sent as %d", i, got[i], want[i])
		}
	}

	r, err := store.OpenRead(srv.DataDir() + "/sessions/" + c.id + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	journaled := make([]trace.Event, sent+1)
	n := 0
	for {
		k, err := r.ReadBatch(journaled[n:])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += k
	}
	if n != sent || !bytes.Equal(wire.AppendEvents(nil, journaled[:n]), wire.AppendEvents(nil, evs[:sent])) {
		t.Fatalf("journal holds %d events that differ from the %d sent", n, sent)
	}
}

// TestRouterRefusesBadFramesAtTheEdge: a frame whose checksum fails, whose
// payload is ragged, or that carries an invalid op stops at the router —
// refused the way it was when the router decoded every frame (a corrupt
// frame drops the connection; a malformed payload earns a typed TError) —
// and not one byte of it reaches a backend.
func TestRouterRefusesBadFramesAtTheEdge(t *testing.T) {
	good := wire.AppendEvents(nil, []trace.Event{{Op: trace.OpWrite, Targ: 1}, {T: 1, Op: trace.OpRead, Targ: 1}})
	badOp := append([]byte(nil), good...)
	badOp[trace.RecordSize+2] = 0xEE

	cases := []struct {
		name  string
		frame func() []byte
		code  wire.ErrCode // "" = connection dropped without a reply
	}{
		{"bad-crc", func() []byte {
			var b bytes.Buffer
			wire.WriteFrame(&b, wire.TEvents, good)
			f := b.Bytes()
			f[7] ^= 0x10
			return f
		}, ""},
		{"invalid-op", func() []byte {
			var b bytes.Buffer
			wire.WriteFrame(&b, wire.TEvents, badOp)
			return b.Bytes()
		}, wire.CodeProto},
		{"ragged", func() []byte {
			var b bytes.Buffer
			wire.WriteFrame(&b, wire.TEvents, good[:len(good)-5])
			return b.Bytes()
		}, wire.CodeProto},
		{"unexpected-frame", func() []byte {
			var b bytes.Buffer
			wire.WriteFrame(&b, wire.TAck, nil)
			return b.Bytes()
		}, wire.CodeProto},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spy, _, addr := startSpyFleet(t)
			c := dialRaw(t, addr)
			if err := wire.WriteFrame(c.conn, wire.TEvents, good); err != nil {
				t.Fatal(err)
			}
			if fed := c.flush(t); fed != 2 {
				t.Fatalf("good frame acked %d", fed)
			}
			if _, err := c.conn.Write(tc.frame()); err != nil {
				t.Fatal(err)
			}
			c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			ty, payload, err := wire.ReadFrame(c.br)
			if tc.code == "" {
				if err == nil {
					t.Fatalf("router answered a corrupt frame with %v (%s)", ty, payload)
				}
			} else {
				if err != nil || ty != wire.TError {
					t.Fatalf("got %v frame, err %v; want a TError", ty, err)
				}
				if re := wire.DecodeError(payload); re.Code != tc.code {
					t.Fatalf("refused with code %q (%s), want %q", re.Code, re.Msg, tc.code)
				}
			}
			if got := spy.seen(); len(got) != 1 || got[0] != len(good) {
				t.Fatalf("backend saw frames %v, want only the good one (%d bytes)", got, len(good))
			}
		})
	}
}

// TestFrontEndsAnswerTheSameCode: raced over TCP and racefleet over a Local
// backend run one protocol loop, so the same violation — and the same
// session-level refusal, stall or corrupt frame — earns the same answer and
// the same count from both.
func TestFrontEndsAnswerTheSameCode(t *testing.T) {
	hello := func(h server.HelloPayload) []byte {
		var b bytes.Buffer
		payload, _ := json.Marshal(h)
		wire.WriteFrame(&b, wire.THello, payload)
		return b.Bytes()
	}
	frame := func(ty wire.Type, payload []byte) []byte {
		var b bytes.Buffer
		wire.WriteFrame(&b, ty, payload)
		return b.Bytes()
	}
	open := hello(server.HelloPayload{Proto: wire.Proto})
	good := wire.AppendEvents(nil, []trace.Event{{Op: trace.OpWrite, Targ: 1}, {T: 1, Op: trace.OpRead, Targ: 1}})
	badOp := append([]byte(nil), good...)
	badOp[trace.RecordSize+2] = 0xEE
	badCRC := frame(wire.TEvents, good)
	badCRC[7] ^= 0x10

	cases := []struct {
		name string
		// send is what a fresh connection writes; the reply to its last frame
		// must be a TError carrying code — or, when code is empty, the
		// connection dropped without one. attach opens a session on a second
		// connection, which stays attached, and returns its id.
		send func(attach func() string) [][]byte
		code wire.ErrCode
		// corrupt and timeouts are what the front's two connection counters
		// read afterwards.
		corrupt, timeouts float64
	}{
		{name: "non-hello-first-frame", send: func(func() string) [][]byte { return [][]byte{frame(wire.TFlush, nil)} }, code: wire.CodeProto},
		{name: "undecodable-hello", send: func(func() string) [][]byte { return [][]byte{frame(wire.THello, []byte("{not json"))} }, code: wire.CodeProto},
		{name: "wrong-proto", send: func(func() string) [][]byte { return [][]byte{hello(server.HelloPayload{Proto: wire.Proto + 7})} }, code: wire.CodeProto},
		{name: "unexpected-frame-mid-session", send: func(func() string) [][]byte { return [][]byte{open, frame(wire.TAck, nil)} }, code: wire.CodeProto},
		{name: "ragged-events", send: func(func() string) [][]byte { return [][]byte{open, frame(wire.TEvents, good[:len(good)-5])} }, code: wire.CodeProto},
		{name: "invalid-op-events", send: func(func() string) [][]byte { return [][]byte{open, frame(wire.TEvents, badOp)} }, code: wire.CodeProto},
		{name: "resume-unknown-session", send: func(func() string) [][]byte {
			return [][]byte{hello(server.HelloPayload{Proto: wire.Proto, Resume: "fnosuchsession"})}
		}, code: wire.CodeUnknownSession},
		{name: "second-attach", send: func(attach func() string) [][]byte {
			return [][]byte{hello(server.HelloPayload{Proto: wire.Proto, Resume: attach()})}
		}, code: wire.CodeBusy},
		// After the handshake the client writes nothing: the front's I/O
		// deadline cuts the connection and says why.
		{name: "stalled-connection", send: func(func() string) [][]byte { return [][]byte{open, nil} }, code: wire.CodeTimeout, timeouts: 1},
		{name: "bad-crc", send: func(func() string) [][]byte { return [][]byte{open, badCRC} }, corrupt: 1},
	}
	// A front is its address, its registry and its metric prefix. Both cut
	// a connection that stalls for stall.
	const stall = 400 * time.Millisecond
	type front struct {
		addr   string
		reg    *obs.Registry
		prefix string
	}
	fronts := map[string]func(*testing.T) front{
		"raced": func(t *testing.T) front {
			srv := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1, IOTimeout: stall})
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.ServeTCP(lis)
			t.Cleanup(func() { lis.Close(); srv.Close() })
			return front{lis.Addr().String(), srv.Registry(), "raced"}
		},
		"racefleet": func(t *testing.T) front {
			srv := server.New(server.Config{DataDir: t.TempDir(), IdleTimeout: -1})
			t.Cleanup(func() { srv.Close() })
			rt, err := New([]Backend{NewLocal("only", srv)}, Options{ProbeInterval: 50 * time.Millisecond, IOTimeout: stall})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lis.Close() })
			go rt.ServeTCP(lis)
			return front{lis.Addr().String(), rt.Registry(), "fleet"}
		},
	}
	for name, start := range fronts {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				f := start(t)
				conn, err := net.Dial("tcp", f.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(conn)
				frames := tc.send(func() string { return dialRaw(t, f.addr).id })
				for i, fr := range frames {
					if _, err := conn.Write(fr); err != nil {
						t.Fatal(err)
					}
					ty, payload, err := wire.ReadFrame(br)
					if i == len(frames)-1 && tc.code == "" {
						if err == nil {
							t.Fatalf("answered %v (%s), want the connection dropped", ty, payload)
						}
						break
					}
					if err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					if i < len(frames)-1 {
						if ty != wire.TAck {
							t.Fatalf("handshake answered %v (%s)", ty, payload)
						}
						continue
					}
					if re := wire.DecodeError(payload); ty != wire.TError || re.Code != tc.code {
						t.Fatalf("answered %v code %q (%s), want TError %q", ty, re.Code, re.Msg, tc.code)
					}
				}
				got := obs.JSONMap(f.reg.Snapshot())
				if c, to := got[f.prefix+"_corrupt_frames_total"], got[f.prefix+"_conn_timeouts_total"]; c != tc.corrupt || to != tc.timeouts {
					t.Fatalf("%s counted %v corrupt frames and %v timeouts, want %v and %v", f.prefix, c, to, tc.corrupt, tc.timeouts)
				}
			})
		}
	}
}

// flakyListener fails its first n Accepts with err, then defers to the
// real listener.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
	err   error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, l.err
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestRouterRidesOutTransientAcceptErrors: fd exhaustion and aborted
// handshakes at accept time must not end the router's ingress (they ended
// it before it shared raced's accept loop); the next client still gets in.
// A non-transient accept error still stops ServeTCP.
func TestRouterRidesOutTransientAcceptErrors(t *testing.T) {
	srv := server.New(server.Config{IdleTimeout: -1})
	t.Cleanup(func() { srv.Close() })
	rt, err := New([]Backend{NewLocal("only", srv)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	for _, errno := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED, syscall.ENOBUFS} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		flaky := &flakyListener{Listener: lis, fails: 3, err: &net.OpError{Op: "accept", Net: "tcp", Err: errno}}
		done := make(chan error, 1)
		go func() { done <- rt.ServeTCP(flaky) }()
		c := dialRaw(t, lis.Addr().String()) // handshake completes: ingress survived
		if c.id == "" {
			t.Fatalf("%v: no session id acked", errno)
		}
		lis.Close()
		if err := <-done; err != nil {
			t.Fatalf("%v: ServeTCP returned %v after the listener closed, want nil", errno, err)
		}
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	fatal := errors.New("accept: something permanent")
	if err := rt.ServeTCP(&flakyListener{Listener: lis, fails: 1, err: fatal}); !errors.Is(err, fatal) {
		t.Fatalf("ServeTCP on a permanent accept error returned %v", err)
	}
}
