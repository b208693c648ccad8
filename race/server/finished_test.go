package server

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/race"
)

// closeRemote streams tr through one fresh wire session and closes it,
// returning the session id and the close reply.
func closeRemote(t *testing.T, addr string, tr *race.Trace) (string, []byte) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(SessionConfig{Analyses: []string{"ST-WDC", "FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	doc, err := sess.CloseJSON()
	if err != nil {
		t.Fatal(err)
	}
	return sess.ID(), doc
}

// resumeRemote resumes id on a fresh connection, which the test closes.
func resumeRemote(t *testing.T, addr, id string) (*RemoteSession, uint64, error) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.Resume(context.Background(), id)
}

// TestResumeOfAClosedSession: a resume of a cleanly closed session attaches
// at the session's final offset; an events frame answers closed, and EOF
// answers with the close reply byte for byte — in the process that closed
// it and in the next one, which recovers it from its directory. A session
// that ended on its sticky error still answers with that error.
func TestResumeOfAClosedSession(t *testing.T) {
	tr := writeWriteRace()
	dir := t.TempDir()
	s1, lis1, addr1 := startDurableTCP(t, dir)
	id, want := closeRemote(t, addr1, tr)

	check := func(t *testing.T, addr string) {
		sess, fed, err := resumeRemote(t, addr, id)
		if err != nil || fed != uint64(tr.Len()) {
			t.Fatalf("resume of a closed session = offset %d, %v; want its final offset %d", fed, err, tr.Len())
		}
		if err := sess.FeedBatch(tr.Events[:1]); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); !errors.Is(err, ErrSessionClosed) || Classify(err).Code != wire.CodeClosed {
			t.Fatalf("events after resuming a closed session answered %v, want closed", err)
		}
		sess, _, err = resumeRemote(t, addr, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.CloseJSON()
		if err != nil || string(got) != string(want) {
			t.Fatalf("EOF after resuming a closed session answered %s, %v; want the close reply %s", got, err, want)
		}
	}
	t.Run("archived", func(t *testing.T) { check(t, addr1) })
	lis1.Close()
	s1.Shutdown()
	s2, lis2, addr2 := startDurableTCP(t, dir)
	t.Cleanup(func() { lis2.Close(); s2.Close() })
	t.Run("recovered", func(t *testing.T) { check(t, addr2) })

	t.Run("sticky-error", func(t *testing.T) {
		_, addr := startTCP(t, Config{})
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sess, err := c.Open(SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.FeedBatch([]race.Event{{Op: trace.OpRelease, Targ: 3}}); err != nil {
			t.Fatal(err)
		}
		_, cerr := sess.CloseJSON()
		if cerr == nil {
			t.Fatal("an ill-formed stream closed cleanly")
		}
		_, _, err = resumeRemote(t, addr, sess.ID())
		if err == nil || Classify(err).Code != Classify(cerr).Code || !errContains(err, "ill-formed event stream") {
			t.Fatalf("resume of a failed session answered %v, want its sticky error %v", err, cerr)
		}
	})
}

// loseReport cuts the connection in place of the first report frame the
// server sends through it: a close reply lost on the way.
type loseReport struct {
	net.Conn
	lost *atomic.Bool
}

func (c loseReport) Write(p []byte) (int, error) {
	if len(p) > 4 && wire.Type(p[4]) == wire.TReport && c.lost.CompareAndSwap(false, true) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestCloseReplyLostIsAskedAgain: when the reply to a reliable session's
// close is lost, CloseJSON resumes the closed session and returns its close
// reply.
func TestCloseReplyLostIsAskedAgain(t *testing.T) {
	tr := writeWriteRace()
	_, addr := startTCP(t, Config{})
	_, want := closeRemote(t, addr, tr)
	lost := new(atomic.Bool)
	_, lossy := startTCP(t, Config{WrapConn: func(c net.Conn) net.Conn { return loseReport{c, lost} }})
	sess, err := OpenReliable(context.Background(), lossy, SessionConfig{Analyses: []string{"ST-WDC", "FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	got, err := sess.CloseJSON()
	if !lost.Load() {
		t.Fatal("no report frame was lost: the test proved nothing")
	}
	if err != nil || string(got) != string(want) {
		t.Fatalf("CloseJSON after a lost reply = %s, %v; want %s", got, err, want)
	}
}

// TestResumeOfAClosedSessionWhoseReportIsGone pins what a resume answers
// once neither the finished archive nor the disk holds the report. A server
// that pushed the session out of its archive (maxFinished later ones) knows
// it no more: unknown-session. A restarted one that finds it closed on disk
// without its report.json answers that the report is missing.
func TestResumeOfAClosedSessionWhoseReportIsGone(t *testing.T) {
	tr := writeWriteRace()
	removeReport := func(t *testing.T, dir, id string) {
		if err := os.Remove(filepath.Join(dir, "sessions", id, "report.json")); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("archive-overflowed", func(t *testing.T) {
		dir := t.TempDir()
		s, lis, addr := startDurableTCP(t, dir)
		t.Cleanup(func() { lis.Close(); s.Close() })
		id, _ := closeRemote(t, addr, tr)
		for i := 0; i < maxFinished; i++ {
			sess, err := s.OpenSession(SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.Finished(id); ok {
			t.Fatalf("session %s still archived after %d later ones", id, maxFinished)
		}
		removeReport(t, dir, id)
		if _, _, err := resumeRemote(t, addr, id); Classify(err).Code != wire.CodeUnknownSession {
			t.Fatalf("resume with the report gone answered %v, want unknown-session", err)
		}
	})
	t.Run("restarted", func(t *testing.T) {
		dir := t.TempDir()
		s1, lis1, addr1 := startDurableTCP(t, dir)
		id, _ := closeRemote(t, addr1, tr)
		lis1.Close()
		s1.Shutdown()
		removeReport(t, dir, id)
		s2, lis2, addr2 := startDurableTCP(t, dir)
		t.Cleanup(func() { lis2.Close(); s2.Close() })
		_, _, err := resumeRemote(t, addr2, id)
		if Classify(err).Code != wire.CodeInternal || !errContains(err, "persisted report missing") {
			t.Fatalf("resume after a restart with the report gone answered %v, want the missing report", err)
		}
	})
}
