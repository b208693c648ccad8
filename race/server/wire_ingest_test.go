package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race"
)

// slabSpy is an engineSink that notes the backing array of every batch the
// feeder hands the engine — the identity of the slab it was decoded into.
type slabSpy struct {
	engineSink
	mu    *sync.Mutex
	slabs map[unsafe.Pointer]bool
}

func (s *slabSpy) FeedBatch(evs []race.Event) error {
	s.mu.Lock()
	s.slabs[unsafe.Pointer(unsafe.SliceData(evs))] = true
	s.mu.Unlock()
	return s.engineSink.FeedBatch(evs)
}

// TestWireSlabRecycling: wire sessions decode every Events frame into one
// of two recycled slabs, and recycling never lets bytes of a later frame (or
// of the client's own buffer, scribbled over after every FeedBatch) reach an
// engine that is still working on an earlier one — parallel engines hold
// batches on worker rings, vindicating ones retain the stream (or, durable,
// read it back from the journal at close). Reports must be byte-identical to
// in-process analysis and no session may see more than two slabs.
func TestWireSlabRecycling(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(20000, 5)
	const frame = 1000 // events per frame; the tail frame is shorter

	engines := []struct {
		name string
		cfg  SessionConfig
		ref  []race.Option
	}{
		{"parallel", SessionConfig{Analyses: []string{"FTO-HB", "ST-WDC", "ST-DC", "FT2"}, Parallelism: 4, BatchSize: 64},
			[]race.Option{race.WithAnalysisNames("FTO-HB", "ST-WDC", "ST-DC", "FT2")}},
		{"vindicating", SessionConfig{Vindicate: true}, []race.Option{race.WithVindication()}},
	}
	for _, e := range engines {
		ref, err := race.NewEngine(e.ref...)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.FeedTrace(tr); err != nil {
			t.Fatal(err)
		}
		rep, err := ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(rep)

		for _, depth := range []int{1, 32} {
			for _, durable := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/depth%d/durable=%v", e.name, depth, durable), func(t *testing.T) {
					var mu sync.Mutex
					slabs := make(map[unsafe.Pointer]bool)
					cfg := Config{QueueDepth: depth}
					if durable {
						cfg.DataDir = t.TempDir()
					}
					cfg.newSink = func(sc SessionConfig, onRace func(race.RaceInfo), journaled bool) (engineSink, error) {
						eng, err := newEngineSink(sc, onRace, journaled, nil)
						if err != nil {
							return nil, err
						}
						return &slabSpy{engineSink: eng, mu: &mu, slabs: slabs}, nil
					}
					_, addr := startTCP(t, cfg)
					client, err := Dial(addr)
					if err != nil {
						t.Fatal(err)
					}
					defer client.Close()
					sess, err := client.Open(e.cfg)
					if err != nil {
						t.Fatal(err)
					}
					sess.batchSize = frame
					buf := make([]race.Event, frame)
					for lo := 0; lo < len(tr.Events); lo += frame {
						n := copy(buf, tr.Events[lo:])
						if err := sess.FeedBatch(buf[:n]); err != nil {
							t.Fatal(err)
						}
						for i := range buf { // the caller's slice is its own again
							buf[i] = race.Event{T: 0xFFFF, Op: 0xEE, Targ: ^uint32(0)}
						}
						if lo/frame%5 == 4 {
							if err := sess.Flush(); err != nil {
								t.Fatal(err)
							}
						}
					}
					got, err := sess.CloseJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("report differs from in-process analysis\n--- wire ---\n%s\n--- batch ---\n%s", got, want)
					}
					if len(slabs) == 0 || len(slabs) > 2 {
						t.Errorf("session decoded into %d slabs, want 1 or 2", len(slabs))
					}
				})
			}
		}
	}
}

// TestRecordPadByteLeavesNoTrace: a record's pad byte is not part of the
// event. Decoded records carry it in the events' padding, and the router
// forwards record bytes verbatim, so the stream sent with pad 0 and with pad
// 0xFF in every record, verbatim (FeedRecords) to a durable server, must give
// the same report and byte-identical journal segment files: every encoder
// writes the pad as 0.
func TestRecordPadByteLeavesNoTrace(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(4000, 5)
	clean := wire.AppendEvents(nil, tr.Events)
	padded := bytes.Clone(clean)
	for i := 3; i < len(padded); i += trace.RecordSize {
		padded[i] = 0xFF
	}
	send := func(recs []byte) (report []byte, journal map[string][]byte) {
		t.Helper()
		dir := t.TempDir()
		_, addr := startTCP(t, Config{DataDir: dir})
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		sess, err := client.Open(SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		const frame = 1000 * trace.RecordSize
		for lo := 0; lo < len(recs); lo += frame {
			if err := sess.FeedRecords(recs[lo:min(lo+frame, len(recs))]); err != nil {
				t.Fatal(err)
			}
		}
		if report, err = sess.CloseJSON(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "sessions", sess.ID(), "journal", "*"))
		journal = make(map[string][]byte)
		for _, seg := range segs {
			if journal[filepath.Base(seg)], err = os.ReadFile(seg); err != nil {
				t.Fatal(err)
			}
		}
		return report, journal
	}
	wantReport, wantJournal := send(clean)
	gotReport, gotJournal := send(padded)
	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("report with pad 0xFF differs from pad 0\n--- 0xFF ---\n%s\n--- 0 ---\n%s", gotReport, wantReport)
	}
	if len(wantJournal) == 0 {
		t.Fatal("the session left no journal files; the comparison would be vacuous")
	}
	if len(gotJournal) != len(wantJournal) {
		t.Fatalf("journal files: %d with pad 0xFF, %d with pad 0", len(gotJournal), len(wantJournal))
	}
	for name, want := range wantJournal {
		if !bytes.Equal(gotJournal[name], want) {
			t.Errorf("journal file %s differs between pad 0xFF and pad 0", name)
		}
	}
}

// TestSlabsSurviveRefusedBatches: a batch the session refuses (it is
// closing, or already failed) hands its slab straight back, so a later
// connection resuming the session still finds both.
func TestSlabsSurviveRefusedBatches(t *testing.T) {
	s := New(Config{newSink: poisonedFactory})
	defer s.Close()
	sess, err := s.OpenSession(SessionConfig{Analyses: []string{"PANIC"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		slab := append(sess.takeSlab(), race.Event{Op: race.OpWrite}, race.Event{Op: race.OpWrite})
		sess.feed(sess.traceCtx, slab, true) // the sink panics on the second, failing the session
		sess.Flush()
	}
	sess.feed(sess.traceCtx, sess.takeSlab(), true) // empty batches come back too
	if n := len(sess.slabs); n != 2 {
		t.Fatalf("%d slabs on the free list after refused batches, want 2", n)
	}
}

// TestWireRefusesBadFrames: nothing of an Events frame reaches the session
// unless the whole frame verifies. A checksum failure counts as a corrupt
// frame and drops the connection; an invalid op or ragged payload under a
// good checksum is a protocol violation answered with a typed TError. Either
// way the session has enqueued only the good frame before it.
func TestWireRefusesBadFrames(t *testing.T) {
	good := wire.AppendEvents(nil, []race.Event{{Op: race.OpWrite, Targ: 1}, {T: 1, Op: race.OpRead, Targ: 1}})
	badOp := append([]byte(nil), good...)
	badOp[14] = 0xEE
	frameOf := func(payload []byte) []byte {
		var b bytes.Buffer
		wire.WriteFrame(&b, wire.TEvents, payload)
		return b.Bytes()
	}
	corrupt := frameOf(good)
	corrupt[9] ^= 0x04
	for _, tc := range []struct {
		name  string
		frame []byte
		code  wire.ErrCode // "" = connection dropped, corrupt-frame counter bumped
	}{
		{"bad-crc", corrupt, ""},
		{"invalid-op", frameOf(badOp), wire.CodeProto},
		{"ragged", frameOf(good[:len(good)-5]), wire.CodeProto},
		{"unexpected-frame", func() []byte {
			var b bytes.Buffer
			wire.WriteFrame(&b, wire.TAck, nil)
			return b.Bytes()
		}(), wire.CodeProto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, addr := startTCP(t, Config{DataDir: t.TempDir()})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			br := bufio.NewReader(conn)
			hello, _ := json.Marshal(HelloPayload{Proto: wire.Proto})
			wire.WriteFrame(conn, wire.THello, hello)
			ty, payload, err := wire.ReadFrame(br)
			if err != nil || ty != wire.TAck {
				t.Fatalf("handshake: %v, %v", ty, err)
			}
			var ack AckPayload
			json.Unmarshal(payload, &ack)
			sess, _ := s.Session(ack.Session)

			wire.WriteFrame(conn, wire.TEvents, good)
			wire.WriteFrame(conn, wire.TFlush, nil)
			if ty, _, err := wire.ReadFrame(br); err != nil || ty != wire.TFlushAck {
				t.Fatalf("flush: %v, %v", ty, err)
			}
			conn.Write(tc.frame)
			ty, payload, err = wire.ReadFrame(br)
			if tc.code == "" {
				if err == nil {
					t.Fatalf("corrupt frame answered with %v (%s)", ty, payload)
				}
				if n := s.metrics.corruptFrames.Value(); n != 1 {
					t.Errorf("raced_corrupt_frames_total = %d, want 1", n)
				}
			} else if err != nil || ty != wire.TError || wire.DecodeError(payload).Code != tc.code {
				t.Fatalf("got %v (%s), err %v; want TError %q", ty, payload, err, tc.code)
			}
			if n := sess.Enqueued(); n != 2 {
				t.Errorf("session enqueued %d events, want the good frame's 2", n)
			}
		})
	}
}

// TestSlabTakePrefersTheGrownOne: while batches never overlap (a client that
// waits for every flush ack) one slab serves them all and the second token
// stays empty — half the per-session memory, and the warm half.
func TestSlabTakePrefersTheGrownOne(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sess, err := s.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	first := append(sess.takeSlab(), make([]race.Event, 100)...)
	sess.putSlab(first)
	for i := 0; i < 4; i++ {
		slab := sess.takeSlab()
		if cap(slab) != cap(first) || unsafe.SliceData(slab[:1]) != unsafe.SliceData(first) {
			t.Fatalf("take %d returned a slab of cap %d, want the grown one (cap %d)", i, cap(slab), cap(first))
		}
		sess.putSlab(slab)
	}
	held := sess.takeSlab() // with the grown one in flight, the spare is handed out
	if spare := sess.takeSlab(); cap(spare) != 0 {
		t.Fatalf("spare slab has cap %d before any overlap", cap(spare))
	}
	_ = held
}

// TestHTTPUploadsFillTheSessionsSlabs: the HTTP routes decode into the two
// slabs a wire connection decodes into. A refused upload hands its slab
// back (a third refusal would otherwise block), a client that flushes
// between uploads grows one slab and leaves the spare empty, and a one-shot
// POST /ingest, whatever its length, shows its engine no third backing array.
func TestHTTPUploadsFillTheSessionsSlabs(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[unsafe.Pointer]bool)
	s := New(Config{newSink: func(cfg SessionConfig, onRace func(race.RaceInfo), journaled bool) (engineSink, error) {
		eng, err := newEngineSink(cfg, onRace, journaled, nil)
		return &slabSpy{engineSink: eng, mu: &mu, slabs: seen}, err
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	sess, err := s.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(40000, 5)
	good := wire.AppendEvents(nil, tr.Events[:3000])
	bad := append([]byte(nil), good...)
	bad[14] = 0xEE
	for i, body := range [][]byte{bad, good[:len(good)-5], bad} {
		if status := post("/sessions/"+sess.ID+"/events", body); status != http.StatusBadRequest {
			t.Fatalf("malformed upload %d answered %d, want 400", i, status)
		}
	}
	for i, body := range [][]byte{good, wire.AppendEvents(nil, tr.Events[3000:6000])} {
		if status := post("/sessions/"+sess.ID+"/events", body); status != http.StatusOK {
			t.Fatalf("upload %d answered %d", i, status)
		}
		if status := post("/sessions/"+sess.ID+"/flush", nil); status != http.StatusOK {
			t.Fatalf("flush %d answered %d", i, status)
		}
	}
	if n := len(sess.slabs); n != 2 {
		t.Fatalf("%d slabs on the free list between requests, want 2", n)
	}
	a, b := <-sess.slabs, <-sess.slabs
	if cap(a) != 0 && cap(b) != 0 {
		t.Errorf("sequential, flushed uploads grew both slabs (caps %d and %d), want one", cap(a), cap(b))
	}
	sess.slabs <- a
	sess.slabs <- b

	clear(seen)
	var file bytes.Buffer
	if err := trace.WriteBinary(&file, tr); err != nil {
		t.Fatal(err)
	}
	if status := post("/ingest", file.Bytes()); status != http.StatusOK {
		t.Fatalf("POST /ingest answered %d", status)
	}
	if len(tr.Events) < 5*ingestBatch || len(seen) == 0 || len(seen) > 2 {
		t.Errorf("a %d-event ingest showed its engine %d backing arrays, want 1 or 2", len(tr.Events), len(seen))
	}
}
