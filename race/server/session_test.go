package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
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
