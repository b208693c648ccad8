package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race/server"
)

// TestSessionLifecycleSameBehindEitherDoor: a driver that goes away without
// an EOF — a fleet.Local session released, a wire connection dropped —
// leaves the session in the same state: a memory-only one frees its pool
// slot at once (no idle eviction needed), a durable one stays live and
// resumable at the offset it had fed, unflushed frames included.
func TestSessionLifecycleSameBehindEitherDoor(t *testing.T) {
	const id = "lifecycle-1"
	cfg := server.SessionConfig{Analyses: []string{"ST-WDC"}}
	flushed := wire.AppendEvents(nil, []trace.Event{{Op: trace.OpWrite, Targ: 1}, {T: 1, Op: trace.OpRead, Targ: 1}})
	unflushed := wire.AppendEvents(nil, []trace.Event{{Op: trace.OpWrite, Targ: 2}})
	const fedEvents = 3

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
					if _, err := sess.Flush(tracing.SpanContext{}); err != nil {
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
						return ok && sess.Fed() == fedEvents
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
				if fed != fedEvents {
					t.Fatalf("resumed at offset %d, want the %d events fed", fed, fedEvents)
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
// through the session's one reused slab, like a wire connection, so in
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
		if _, err := sess.Flush(tracing.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	feedAndFlush := func() {
		if err := sess.FeedRecords(frame); err != nil {
			t.Fatal(err)
		}
		flush()
	}
	// A malformed frame is refused as a protocol violation.
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
// stay only for benchmark/'s ledger (ROADMAP item 9(a)); nothing else outside
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

// httpDo issues one request against a handler under test and returns the
// status, the X-Raced-Error-Code header and the body.
func httpDo(t *testing.T, base, method, path string, body io.Reader) (int, wire.ErrCode, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, wire.ErrCode(resp.Header.Get(wire.ErrorCodeHeader)), doc
}

// TestSessionDrivenOverHTTPMatchesWire: a one-shot POST /ingest is the
// session door a wire connection comes in by. Through raced's handler and
// through the router's, the session it drives reports the bytes a wire-fed
// one (and batch Analyze) does. Neither front end opens or feeds a session
// over HTTP: those routes answer 404 or 405.
func TestSessionDrivenOverHTTPMatchesWire(t *testing.T) {
	names := []string{"ST-WDC", "FTO-HB", "Unopt-DC w/G"}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(100000, 9)
	want := batchReport(t, tr, names)
	cfgDoc, _ := json.Marshal(server.SessionConfig{Analyses: names})

	fronts := map[string]func(t *testing.T, srv *server.Server) (api http.Handler, serveTCP func(net.Listener) error){
		"raced": func(t *testing.T, srv *server.Server) (http.Handler, func(net.Listener) error) {
			return srv.Handler(), srv.ServeTCP
		},
		"racefleet": func(t *testing.T, srv *server.Server) (http.Handler, func(net.Listener) error) {
			rt, err := New([]Backend{NewLocal("only", srv)}, Options{ProbeInterval: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			return rt.Handler(), rt.ServeTCP
		},
	}
	for name, start := range fronts {
		t.Run(name, func(t *testing.T) {
			srv := server.New(server.Config{IdleTimeout: -1}) // memory-only
			t.Cleanup(func() { srv.Close() })
			api, serveTCP := start(t, srv)
			ts := httptest.NewServer(api)
			t.Cleanup(ts.Close)
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lis.Close() })
			go serveTCP(lis)

			// The wire-driven twin.
			c, err := server.Dial(lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wsess, err := c.Open(server.SessionConfig{Analyses: names})
			if err != nil {
				t.Fatal(err)
			}
			if err := wsess.FeedBatch(tr.Events[:len(tr.Events)/2]); err != nil {
				t.Fatal(err)
			}
			if err := wsess.Flush(); err != nil {
				t.Fatal(err)
			}

			held := "/sessions/" + wsess.ID()
			for _, path := range []string{"/sessions", held + "/events", held + "/flush", held + "/close"} {
				status, _, doc := httpDo(t, ts.URL, "POST", path, bytes.NewReader(cfgDoc))
				if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
					t.Errorf("POST %s answered %d %s, want 404 or 405: the wire opens and feeds sessions", path, status, doc)
				}
			}

			if err := wsess.FeedBatch(tr.Events[len(tr.Events)/2:]); err != nil {
				t.Fatal(err)
			}
			if wgot, err := wsess.CloseJSON(); err != nil || !bytes.Equal(wgot, want) {
				t.Errorf("wire-driven report differs from batch Analyze (err %v)", err)
			}

			// One-shot ingest is the same door once more.
			var file bytes.Buffer
			if err := trace.WriteBinary(&file, tr); err != nil {
				t.Fatal(err)
			}
			status, _, got := httpDo(t, ts.URL, "POST", "/ingest?analysis="+url.QueryEscape(strings.Join(names, ",")), &file)
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("POST /ingest report (%d) differs from batch Analyze", status)
			}
		})
	}
}

// fleetOf boots n durable local backends, each configured as cfg with its
// own data directory and no idle timeout, behind a router whose HTTP API
// and wire listener are both up.
func fleetOf(t *testing.T, n int, cfg server.Config, opts Options) (rt *Router, locals []*Local, api, wireAddr string) {
	t.Helper()
	var backends []Backend
	for i := 0; i < n; i++ {
		cfg.DataDir, cfg.IdleTimeout = t.TempDir(), -1
		srv := server.New(cfg)
		t.Cleanup(func() { srv.Close() })
		locals = append(locals, NewLocal(string(rune('a'+i))+"-backend", srv))
		backends = append(backends, locals[i])
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = time.Hour // health changes only when a test says so
	}
	rt, err := New(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go rt.ServeTCP(lis)
	return rt, locals, ts.URL, lis.Addr().String()
}

// idsOwnedBy mints fleet ids whose first ring arc is the named backend.
func idsOwnedBy(rt *Router, name string) func() string {
	n := 0
	return func() string {
		for {
			n++
			if id := fmt.Sprintf("fowned%06d", n); rt.ring.sequence(id)[0] == name {
				return id
			}
		}
	}
}

// TestIngestIsPlacedLikeWireOpens: POST /ingest walks the ring the way a
// wire open does. With the id's first arc full, and then draining without
// the prober having noticed, both land on the next arc; with every arc
// refusing, both answer the same condition.
func TestIngestIsPlacedLikeWireOpens(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 2) // small: the trace file fits the replay window
	var file bytes.Buffer
	if err := trace.WriteBinary(&file, tr); err != nil {
		t.Fatal(err)
	}
	want := batchReport(t, tr, []string{"ST-WDC"})

	refusals := map[string]func(t *testing.T, first *Local){
		"full": func(t *testing.T, first *Local) {
			if _, err := first.Server().OpenSession(server.SessionConfig{}); err != nil {
				t.Fatal(err)
			}
		},
		"draining": func(t *testing.T, first *Local) { first.Server().Drain() },
	}
	for name, refuse := range refusals {
		t.Run(name, func(t *testing.T) {
			var mint func() string
			rt, locals, api, wireAddr := fleetOf(t, 2, server.Config{MaxSessions: 1}, Options{NewSessionID: func() string { return mint() }})
			first, second := locals[0], locals[1]
			mint = idsOwnedBy(rt, first.Name())
			refuse(t, first)
			landed := func(how, id string) {
				t.Helper()
				sess, ok := second.Server().Session(id)
				if !ok {
					t.Fatalf("%s: session %s is not on %s, the arc after the refusing one", how, id, second.Name())
				}
				sess.Close() // second admits one session at a time too
			}

			c, err := server.Dial(wireAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wsess, err := c.Open(server.SessionConfig{})
			if err != nil {
				t.Fatalf("wire open with the first arc %s: %v", name, err)
			}
			landed("wire open", wsess.ID())

			status, code, got := httpDo(t, api, "POST", "/ingest?analysis=ST-WDC", bytes.NewReader(file.Bytes()))
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("POST /ingest with the first arc %s: %d [%s] %s", name, status, code, got)
			}

			// Nobody left to take it: the same row of the table from both.
			if _, err := second.Server().OpenSession(server.SessionConfig{}); err != nil {
				t.Fatal(err)
			}
			c2, err := server.Dial(wireAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			_, werr := c2.Open(server.SessionConfig{})
			status, code, doc := httpDo(t, api, "POST", "/ingest?analysis=ST-WDC", bytes.NewReader(file.Bytes()))
			cond := server.Classify(werr)
			if werr == nil || status != cond.Status || code != cond.WireCode() || cond.Code != wire.CodeFull {
				t.Fatalf("every arc refusing: wire says %v, HTTP %d [%s] %s; want one condition, full, from both", werr, status, code, doc)
			}
		})
	}
}

// TestBroughtHomeByResumeOrByMigrate: a client's resume and an operator's
// POST /admin/sessions/{id}/migrate run one homecoming. From each state a
// session can be stranded in — live on a draining backend, sealed in the
// directory of a dead one, sealed under the very backend it belongs on —
// both ways end with the same report, the same fleet_migrations_* and
// fleet_resumes_routed_total deltas, and both leave the session alone when
// the home is marked down.
func TestBroughtHomeByResumeOrByMigrate(t *testing.T) {
	names := []string{"ST-WDC", "FTO-HB"}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 13, Threads: 5, Chans: 3, MaxCap: 2, Locks: 2, Vars: 5, Events: 3000,
	})
	want := batchReport(t, tr, names)
	mid := len(tr.Events) / 2

	// strand leaves the session off the backend a resume may land on and
	// returns that backend, its home-to-be.
	states := map[string]func(t *testing.T, rt *Router, holder, other *Local, id string) (home *Local){
		"live on a draining backend": func(t *testing.T, rt *Router, holder, other *Local, id string) *Local {
			holder.Server().Drain()
			rt.health.observe(holder.Name(), ErrBackendDraining)
			return other
		},
		"sealed on a dead backend": func(t *testing.T, rt *Router, holder, other *Local, id string) *Local {
			holder.Kill()
			return other
		},
		"sealed under its own home": func(t *testing.T, rt *Router, holder, other *Local, id string) *Local {
			if _, err := holder.Server().SuspendSession(id); err != nil {
				t.Fatal(err)
			}
			rt.health.observe(other.Name(), ErrBackendDraining) // a resume may land on holder alone
			return holder
		},
	}
	type counts struct{ started, completed, failed, resumes uint64 }
	read := func(rt *Router) (c counts) {
		c = counts{rt.metrics.migStarted.Value(), rt.metrics.migCompleted.Value(), rt.metrics.migFailed.Value(), 0}
		for _, r := range rt.metrics.resumesRouted {
			c.resumes += r.Value()
		}
		return c
	}
	// run strands a fresh session, brings it home one way, finishes the
	// stream and returns what the router counted.
	run := func(t *testing.T, state string, byAdmin, homeDown bool) counts {
		rt, locals, api, wireAddr := fleetOf(t, 2, server.Config{}, Options{})
		c, err := server.Dial(wireAddr)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.Open(server.SessionConfig{Analyses: names})
		if err != nil {
			t.Fatal(err)
		}
		id := sess.ID()
		if err := sess.FeedBatch(tr.Events[:mid]); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		c.Close() // the durable session stays resumable
		holder, other := holderOf(t, locals, id)
		waitFor(t, func() bool { // until the backend has reaped the dropped connection
			att, _, err := holder.Server().Attach(context.Background(), &server.HelloPayload{Resume: id})
			if err == nil {
				att.Drop(server.ErrConnLost)
			}
			return err == nil
		})
		home := states[state](t, rt, holder, other, id)
		before := read(rt)
		if homeDown {
			rt.health.markDown(home.Name())
		}

		var homeErr error
		if byAdmin {
			status, _, doc := httpDo(t, api, "POST", "/admin/sessions/"+id+"/migrate?to="+home.Name(), nil)
			if status != http.StatusOK {
				homeErr = fmt.Errorf("%d %s", status, doc)
			}
		}
		var resumed *server.RemoteSession
		var fed uint64
		c2, err := server.Dial(wireAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if homeErr == nil {
			resumed, fed, homeErr = c2.Resume(context.Background(), id)
		}
		if homeDown {
			if homeErr == nil {
				t.Fatalf("brought home to %s, which is marked down", home.Name())
			}
			if _, moved := home.Server().Session(id); moved && home != holder {
				t.Fatalf("refused (%v), yet the session moved to %s", homeErr, home.Name())
			}
			return read(rt)
		}
		if homeErr != nil {
			t.Fatal(homeErr)
		}
		if _, ok := home.Server().Session(id); !ok {
			t.Fatalf("session %s is not live on its home %s", id, home.Name())
		}
		if err := resumed.FeedBatch(tr.Events[fed:]); err != nil {
			t.Fatal(err)
		}
		if got, err := resumed.CloseJSON(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("report differs from batch Analyze (err %v)", err)
		}
		after := read(rt)
		return counts{after.started - before.started, after.completed - before.completed, after.failed - before.failed, after.resumes - before.resumes}
	}
	for state := range states {
		t.Run(state, func(t *testing.T) {
			byResume, byAdmin := run(t, state, false, false), run(t, state, true, false)
			if byResume != byAdmin || byResume != (counts{started: 1, completed: 1, resumes: 1}) {
				t.Errorf("brought home by resume the router counted %+v, by admin migrate %+v; want one migration and one routed resume from both", byResume, byAdmin)
			}
		})
	}
	t.Run("home marked down", func(t *testing.T) {
		run(t, "live on a draining backend", false, true)
		run(t, "live on a draining backend", true, true)
	})
}
