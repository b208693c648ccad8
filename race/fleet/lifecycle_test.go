package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/race/server"
)

// TestSessionLifecycleSameBehindEitherDoor: a driver that goes away without
// an EOF — a fleet.Local session released, a wire connection dropped —
// leaves the session in the same state: a memory-only one frees its pool
// slot at once (no idle eviction needed), a durable one stays live and
// resumable at the offset it had enqueued, unflushed frames included.
func TestSessionLifecycleSameBehindEitherDoor(t *testing.T) {
	const id = "lifecycle-1"
	cfg := server.SessionConfig{Analyses: []string{"ST-WDC"}}
	flushed := wire.AppendEvents(nil, []trace.Event{{Op: trace.OpWrite, Targ: 1}, {T: 1, Op: trace.OpRead, Targ: 1}})
	unflushed := wire.AppendEvents(nil, []trace.Event{{Op: trace.OpWrite, Targ: 2}})
	const enqueued = 3

	// A door opens or resumes the session and returns the acked offset, a
	// way to feed one frame (flushing after it or not), and a way to vanish.
	type door func(t *testing.T, srv *server.Server, resume bool) (fed uint64, feed func(recs []byte, flush bool), vanish func())
	doors := map[string]door{
		"Local": func(t *testing.T, srv *server.Server, resume bool) (uint64, func([]byte, bool), func()) {
			b := NewLocal("b", srv)
			var (
				sess Session
				fed  uint64
				err  error
			)
			if resume {
				sess, fed, err = b.Resume(context.Background(), id)
			} else {
				sess, err = b.Open(context.Background(), id, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			return fed, func(recs []byte, flush bool) {
				if err := sess.FeedRecords(recs); err != nil {
					t.Fatal(err)
				}
				if flush {
					if _, err := sess.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}, sess.Release
		},
		"TCP": func(t *testing.T, srv *server.Server, resume bool) (uint64, func([]byte, bool), func()) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lis.Close() })
			go srv.ServeTCP(lis)
			hello := server.HelloPayload{Proto: wire.Proto, SessionID: id, Session: cfg}
			if resume {
				hello = server.HelloPayload{Proto: wire.Proto, Resume: id}
			}
			payload, _ := json.Marshal(hello)
			// The server reaps a dropped connection on its own time: a resume
			// that arrives first is told busy, and tries again.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				conn, err := net.Dial("tcp", lis.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				c := &rawClient{conn: conn, br: bufio.NewReader(conn)}
				if err := wire.WriteFrame(conn, wire.THello, payload); err != nil {
					t.Fatal(err)
				}
				ty, reply, err := wire.ReadFrame(c.br)
				if err != nil {
					t.Fatal(err)
				}
				if ty == wire.TError && wire.DecodeError(reply).Code == wire.CodeBusy && time.Now().Before(deadline) {
					conn.Close()
					continue
				}
				if ty != wire.TAck {
					t.Fatalf("handshake answered %v (%s)", ty, reply)
				}
				var ack server.AckPayload
				if err := json.Unmarshal(reply, &ack); err != nil {
					t.Fatal(err)
				}
				return ack.Fed, func(recs []byte, flush bool) {
					if err := wire.WriteFrame(conn, wire.TEvents, recs); err != nil {
						t.Fatal(err)
					}
					if flush {
						c.flush(t)
					}
				}, func() { conn.Close() }
			}
		},
	}

	for name, open := range doors {
		for _, durable := range []bool{false, true} {
			kind := "memory-only"
			if durable {
				kind = "durable"
			}
			t.Run(name+"/"+kind, func(t *testing.T) {
				scfg := server.Config{IdleTimeout: -1}
				if durable {
					scfg.DataDir = t.TempDir()
				}
				srv := server.New(scfg)
				t.Cleanup(func() { srv.Close() })

				_, feed, vanish := open(t, srv, false)
				feed(flushed, true)
				feed(unflushed, false)
				if name == "TCP" {
					// The unflushed frame may still be in flight when the
					// connection drops; wait until the server has taken it in.
					waitFor(t, func() bool {
						sess, ok := srv.Session(id)
						return ok && sess.Enqueued() == enqueued
					})
				}
				vanish()

				if !durable {
					waitFor(t, func() bool { return srv.ActiveSessions() == 0 })
					if _, ok := srv.Session(id); ok {
						t.Fatal("a memory-only session outlived its driver")
					}
					return
				}
				fed, _, vanish := open(t, srv, true)
				defer vanish()
				if fed != enqueued {
					t.Fatalf("resumed at offset %d, want the %d events enqueued", fed, enqueued)
				}
				if n := srv.ActiveSessions(); n != 1 {
					t.Fatalf("%d live sessions after the resume, want 1", n)
				}
			})
		}
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
	}
}

// TestLocalFeedDoesNotAllocate: an in-process backend feeds record bytes
// through the session's two recycled slabs, like a wire connection, so in
// steady state a frame costs no allocation on top of its flush barrier's.
func TestLocalFeedDoesNotAllocate(t *testing.T) {
	srv := server.New(server.Config{IdleTimeout: -1})
	t.Cleanup(func() { srv.Close() })
	sess, err := NewLocal("b", srv).Open(context.Background(), "alloc-1", server.SessionConfig{Analyses: []string{"FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	// One thread re-reading one variable: the analysis stays on its
	// same-epoch fast path and allocates nothing either.
	frame := wire.AppendEvents(nil, make([]trace.Event, 2048))
	flush := func() {
		if _, err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	feedAndFlush := func() {
		if err := sess.FeedRecords(frame); err != nil {
			t.Fatal(err)
		}
		flush()
	}
	// A malformed frame is refused as a protocol violation and costs the
	// session neither of its two slabs (a third refusal would block on them).
	bad := append([]byte(nil), frame...)
	bad[2] = 0xEE
	for _, recs := range [][]byte{bad, frame[:len(frame)-5], bad} {
		if err := sess.FeedRecords(recs); server.Classify(err).Code != wire.CodeProto {
			t.Fatalf("malformed frame answered %v, want a protocol violation", err)
		}
	}
	feedAndFlush() // grow the slab
	barrier := testing.AllocsPerRun(100, flush)
	if got := testing.AllocsPerRun(100, feedAndFlush); got != barrier {
		t.Fatalf("FeedRecords + Flush of a 2,048-event frame allocates %v times, Flush alone %v: the feed must add none", got, barrier)
	}
}

// TestNoWholePayloadCodecCallers: wire.AppendEvents and wire.DecodeEvents
// stay only for benchmark/'s ledger (ROADMAP item 8); nothing else outside
// tests builds or parses a whole Events payload.
func TestNoWholePayloadCodecCallers(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "benchmark" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == filepath.Join("internal", "wire", "wire.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, fn := range []string{"wire.DecodeEvents(", "wire.AppendEvents("} {
			if bytes.Contains(src, []byte(fn)) {
				t.Errorf("%s calls %s…)", rel, fn)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
