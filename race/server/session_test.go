package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race"
)

// TestIdleSessionsRunNoGoroutine: a session is driven on its driver's
// goroutine, so a full pool of sequential-engine sessions — fed, flushed and
// then idle — adds no goroutine to the server, memory-only or durable.
func TestIdleSessionsRunNoGoroutine(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{MaxSessions: 64}
			if durable {
				cfg.DataDir = t.TempDir()
			}
			s := New(cfg)
			defer s.Close()
			before := runtime.NumGoroutine()
			for i := 0; i < cfg.MaxSessions; i++ {
				sess, err := s.OpenSession(SessionConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Feed([]race.Event{{Op: race.OpWrite}, {T: 1, Op: race.OpWrite}}); err != nil {
					t.Fatal(err)
				}
				if err := sess.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d idle sessions added %d goroutines, want none", cfg.MaxSessions, after-before)
			}
		})
	}
}

// gateSink holds every FeedBatch until release is closed, noting on entered
// that a batch is in flight.
type gateSink struct {
	engineSink
	entered chan struct{}
	release chan struct{}
}

func (g *gateSink) FeedBatch(evs []race.Event) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return g.engineSink.FeedBatch(evs)
}

// TestEndingWaitsForTheBatchInFlight: every way a session ends — Close,
// idle eviction, a migration's suspend, server shutdown — races a driver
// whose FeedRecords is inside the engine. The ending waits for that batch,
// then the driver's next frame gets the ending's typed error, and the ending
// itself a report or an offset that counts the batch.
func TestEndingWaitsForTheBatchInFlight(t *testing.T) {
	recs := wire.AppendEvents(nil, []race.Event{{Op: race.OpWrite, Targ: 1}, {T: 1, Op: race.OpWrite, Targ: 1}})
	for _, tc := range []struct {
		name string
		end  func(s *Server, sess *Session) error
		want error // what the driver's next frame answers
	}{
		{"Close", func(s *Server, sess *Session) error {
			rep, err := sess.Close()
			if err == nil && rep == nil {
				err = errors.New("Close returned no report")
			}
			return err
		}, ErrSessionClosed},
		{"EvictIdle", func(s *Server, sess *Session) error {
			if n := s.EvictIdle(time.Now().Add(time.Hour)); n != 1 {
				return fmt.Errorf("EvictIdle evicted %d sessions, want 1", n)
			}
			return nil
		}, ErrEvicted},
		{"SuspendSession", func(s *Server, sess *Session) error {
			off, err := s.SuspendSession(sess.ID)
			if err == nil && off != sess.Fed() {
				err = fmt.Errorf("suspended at offset %d, session fed %d", off, sess.Fed())
			}
			return err
		}, ErrSuspended},
		{"Server.Close", func(s *Server, sess *Session) error { return s.Close() }, ErrServerClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := &gateSink{entered: make(chan struct{}, 1), release: make(chan struct{})}
			s := New(Config{DataDir: t.TempDir(), newSink: func(sc SessionConfig, onRace func(race.RaceInfo), journaled bool) (engineSink, error) {
				eng, err := newEngineSink(sc, onRace, journaled, nil)
				gate.engineSink = eng
				return gate, err
			}})
			defer s.Close()
			att, ack, err := s.Attach(context.Background(), &HelloPayload{})
			if err != nil {
				t.Fatal(err)
			}
			sess, _ := s.Session(ack.Session)
			fed := make(chan error, 1)
			go func() {
				for {
					if err := att.FeedRecords(recs); err != nil {
						fed <- err
						return
					}
				}
			}()
			<-gate.entered
			ended := make(chan error, 1)
			go func() { ended <- tc.end(s, sess) }()
			select {
			case err := <-ended:
				t.Fatalf("the session ended (%v) while a batch was in the engine", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(gate.release)
			if err := <-ended; err != nil {
				t.Fatal(err)
			}
			if err := <-fed; !errors.Is(err, tc.want) {
				t.Errorf("the driver's next frame got %v, want %v", err, tc.want)
			}
			if n := sess.Fed(); n < 2 {
				t.Errorf("session fed %d events, want the batch in flight counted", n)
			}
			att.Drop(ErrConnLost)
		})
	}
}

// TestLiveRacesMatchOnRace: a streaming session keeps its races as 16-byte
// records in chunks, and GET /sessions/{id}/races rebuilds from them
// exactly the RaceInfos an in-process engine's OnRace callback receives for
// the same prefix — delivery order, analysis names, seq, var, loc, index
// and write — over several chunks, while GET /sessions counts the same
// races. Both engines are fed the same runs (one wire frame each), so the
// analyses' races interleave alike. Once the session closes into its
// report it drops the list, the races document is the report, and the row
// still counts every analysis's races: it never falls at close.
func TestLiveRacesMatchOnRace(t *testing.T) {
	if n := unsafe.Sizeof(liveRace{}); n != 16 {
		t.Fatalf("liveRace is %d bytes, want 16", n)
	}
	analyses := []string{"ST-WDC", "FTO-HB", "ST-DC"}
	p, _ := workload.ProgramByName("tomcat")
	tr := p.Generate(60000, 5)
	var want []race.RaceInfo
	eng, err := race.NewEngine(race.WithAnalysisNames(analyses...),
		race.WithOnRace(func(ri race.RaceInfo) { want = append(want, ri) }))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	s, addr := startTCP(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Open(SessionConfig{Analyses: analyses})
	if err != nil {
		t.Fatal(err)
	}

	fed := 0
	for _, cut := range []int{tr.Len() / 4, tr.Len() / 2, tr.Len() - 1} {
		for ; fed < cut; fed += DefaultClientBatch {
			run := tr.Events[fed:min(fed+DefaultClientBatch, cut)]
			if err := eng.FeedBatch(run); err != nil {
				t.Fatal(err)
			}
			if err := rs.FeedBatch(run); err != nil {
				t.Fatal(err)
			}
		}
		fed = cut
		if err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
		var live struct {
			Fed   uint64          `json:"fed"`
			Races []race.RaceInfo `json:"races"`
		}
		getJSON("/sessions/"+rs.ID()+"/races", &live)
		if live.Fed != uint64(cut) || !reflect.DeepEqual(live.Races, want) {
			t.Fatalf("after %d events: live list of %d races at %d events differs from the %d OnRace delivered",
				cut, len(live.Races), live.Fed, len(want))
		}
		var list struct{ Sessions []SessionStatus }
		getJSON("/sessions", &list)
		if len(list.Sessions) != 1 || list.Sessions[0].Races != len(want) {
			t.Fatalf("after %d events: GET /sessions = %+v, want one row counting %d races", cut, list.Sessions, len(want))
		}
	}
	for _, name := range analyses {
		n := 0
		for _, ri := range want {
			if ri.Analysis == name {
				n++
			}
		}
		if n <= 256 {
			t.Errorf("%s delivered %d races mid-stream; the check wants several chunks' worth", name, n)
		}
	}

	rep, err := rs.Close()
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := s.Finished(rs.ID())
	if !ok {
		t.Fatal("closed session is not in the finished archive")
	}
	sess.mu.Lock()
	kept, names := sess.online.Len(), sess.names
	sess.mu.Unlock()
	if kept != 0 || names != nil {
		t.Errorf("finished session still holds %d live races and names %v", kept, names)
	}
	if races, live := sess.Races(); live || races != nil {
		t.Errorf("finished session's Races() = %d races, live %v", len(races), live)
	}
	var doc, wantDoc json.RawMessage
	getJSON("/sessions/"+rs.ID()+"/races", &doc)
	wantDoc, _ = json.Marshal(rep)
	if !bytes.Equal(doc, wantDoc) {
		t.Errorf("finished session's races document is not its report:\n%s\nvs\n%s", doc, wantDoc)
	}
	var list struct{ Sessions []SessionStatus }
	getJSON("/sessions", &list)
	if st := list.Sessions[0]; st.State != "finished" || st.Races != len(want) {
		t.Errorf("GET /sessions after close = %+v, want finished with every analysis's %d races", st, len(want))
	}
}
