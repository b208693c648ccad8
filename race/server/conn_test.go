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
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/wire"
)

// scriptedStream is a Stream whose answers a test fixes in advance, and
// which records how the loop let go of it.
type scriptedStream struct {
	eventsErr error                  // Events' answer, once the body is read
	flush     func() (uint64, error) // Flush
	report    []byte                 // Close
	dropped   chan error             // Drop's cause
}

func (s *scriptedStream) Events(br *bufio.Reader, n int) (error, error) {
	if _, err := wire.ReadBody(br, wire.TEvents, n, nil); err != nil {
		return err, nil
	}
	return nil, s.eventsErr
}
func (s *scriptedStream) Flush(tracing.SpanContext) (uint64, error) { return s.flush() }
func (s *scriptedStream) Close() ([]byte, error)                    { return s.report, nil }
func (s *scriptedStream) Drop(cause error)                          { s.dropped <- cause }

// servePipe runs the protocol loop over one end of a net.Pipe with st behind
// it, performs the handshake on the other end and returns that end.
func servePipe(t *testing.T, st *scriptedStream, redirects *obs.Counter) (net.Conn, *bufio.Reader) {
	t.Helper()
	st.dropped = make(chan error, 1)
	front := &Front{
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		SpanName: "test.conn", Redirects: redirects,
		ConnTimeouts: new(obs.Counter), CorruptFrames: new(obs.Counter),
		Open: func(context.Context, *HelloPayload) (Stream, AckPayload, error) {
			return st, AckPayload{Session: "scripted"}, nil
		},
	}
	client, srv := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go front.serveConn(srv)
	client.SetDeadline(time.Now().Add(10 * time.Second))
	hello, _ := json.Marshal(HelloPayload{Proto: wire.Proto})
	if err := wire.WriteFrame(client, wire.THello, hello); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(client)
	if ty, payload, err := wire.ReadFrame(br); err != nil || ty != wire.TAck {
		t.Fatalf("handshake answered %v (%s), err %v", ty, payload, err)
	}
	return client, br
}

// TestProtocolLoopReplies drives the one protocol loop with a scripted
// stream through the replies no real session reaches on demand.
func TestProtocolLoopReplies(t *testing.T) {
	sticky := fmt.Errorf("%w: journaling batch: disk on fire", ErrDiskFault)

	t.Run("oversized report earns a typed error", func(t *testing.T) {
		client, br := servePipe(t, &scriptedStream{report: make([]byte, wire.MaxPayload+1)}, nil)
		if err := wire.WriteFrame(client, wire.TEOF, nil); err != nil {
			t.Fatal(err)
		}
		ty, payload, err := wire.ReadFrame(br)
		if err != nil || ty != wire.TError {
			t.Fatalf("answered %v, err %v; want a TError, not a silent close", ty, err)
		}
		if re := wire.DecodeError(payload); re.Code != wire.CodeInternal {
			t.Fatalf("code %q (%s), want %q", re.Code, re.Msg, wire.CodeInternal)
		}
	})

	t.Run("failed flush-ack write is a lost connection", func(t *testing.T) {
		gone := make(chan struct{})
		st := &scriptedStream{flush: func() (uint64, error) { <-gone; return 7, nil }}
		client, _ := servePipe(t, st, nil)
		if err := wire.WriteFrame(client, wire.TFlush, nil); err != nil {
			t.Fatal(err)
		}
		client.Close() // the barrier completes, but nobody is left to ack
		close(gone)
		if cause := <-st.dropped; !errors.Is(cause, ErrConnLost) || Classify(cause).Fate != KeepOpen {
			t.Fatalf("dropped with %v: want a lost connection, which leaves a durable session resumable", cause)
		}
	})

	t.Run("events after a sticky error earn one error frame", func(t *testing.T) {
		st := &scriptedStream{eventsErr: sticky}
		client, br := servePipe(t, st, nil)
		if err := wire.WriteFrame(client, wire.TEvents, make([]byte, 24)); err != nil {
			t.Fatal(err)
		}
		go wire.WriteFrame(client, wire.TEvents, make([]byte, 24)) // never read: the session is over
		ty, payload, err := wire.ReadFrame(br)
		if err != nil || ty != wire.TError || wire.DecodeError(payload).Code != wire.CodeIO {
			t.Fatalf("answered %v (%s), err %v; want a TError %q", ty, payload, err, wire.CodeIO)
		}
		if ty, _, err := wire.ReadFrame(br); err == nil {
			t.Fatalf("a second reply: %v", ty)
		}
		if cause := <-st.dropped; !errors.Is(cause, ErrDiskFault) {
			t.Fatalf("dropped with %v, want the sticky error", cause)
		}
	})

	// A Redirect needs both: a front end that sends them, and a failure
	// that resuming heals.
	for _, tc := range []struct {
		name      string
		redirects *obs.Counter
		err       error
		want      wire.Type
	}{
		{"router, resumable", new(obs.Counter), ErrSuspended, wire.TRedirect},
		{"router, permanent", new(obs.Counter), sticky, wire.TError},
		{"server, resumable", nil, ErrSuspended, wire.TError},
		{"server, permanent", nil, sticky, wire.TError},
	} {
		t.Run("redirect: "+tc.name, func(t *testing.T) {
			st := &scriptedStream{flush: func() (uint64, error) { return 0, tc.err }}
			client, br := servePipe(t, st, tc.redirects)
			if err := wire.WriteFrame(client, wire.TFlush, nil); err != nil {
				t.Fatal(err)
			}
			ty, payload, err := wire.ReadFrame(br)
			if err != nil || ty != tc.want {
				t.Fatalf("answered %v (%s), err %v; want %v", ty, payload, err, tc.want)
			}
			if want := tc.want == wire.TRedirect; tc.redirects != nil && (tc.redirects.Value() == 1) != want {
				t.Fatalf("redirect counter reads %d", tc.redirects.Value())
			}
			<-st.dropped
		})
	}
}

// FuzzFlushAck: the FlushAck body the server writes, json.Marshal of a
// FlushAckPayload, reads back as fed, and the client refuses every other
// payload (leading zeros, signs, spaces, overflow, more keys), however
// json.Unmarshal would read it.
func FuzzFlushAck(f *testing.F) {
	for _, seed := range []string{`{"fed":0}`, `{"fed":1}`, `{"fed":4096}`, `{"fed":18446744073709551615}`,
		`{"fed":18446744073709551616}`, `{"fed":007}`, `{"fed":-1}`, `{"fed":+1}`, `{"fed": 1}`, `{"fed":1e3}`,
		`{"fed":1,"fed":2}`, `{"fed":}`, `{"fed":"1"}`, `{}`, `null`, ``, `{"Fed":5}`, `0}`} {
		f.Add(uint64(len(seed)), []byte(seed))
	}
	canonical := func(fed uint64) []byte {
		doc, err := json.Marshal(FlushAckPayload{Fed: fed})
		if err != nil {
			f.Fatal(err)
		}
		return doc
	}
	f.Fuzz(func(t *testing.T, fed uint64, payload []byte) {
		ack := canonical(fed)
		if got, err := parseFlushAck(ack); err != nil || got != fed {
			t.Fatalf("parseFlushAck(%s) = %d, %v", ack, got, err)
		}
		got, err := parseFlushAck(payload)
		if err == nil && !bytes.Equal(payload, canonical(got)) {
			t.Fatalf("parseFlushAck(%q) = %d: a payload other than {\"fed\":N} was read", payload, got)
		}
	})
}

// TestFlushAckParseAllocatesNothing: the client reads the canonical
// FlushAck body in place.
func TestFlushAckParseAllocatesNothing(t *testing.T) {
	ack := []byte(`{"fed":123456789}`)
	if allocs := testing.AllocsPerRun(100, func() {
		if fed, err := parseFlushAck(ack); err != nil || fed != 123456789 {
			t.Fatal(fed, err)
		}
	}); allocs != 0 {
		t.Errorf("reading a FlushAck allocates %.0f times", allocs)
	}
}
