package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
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
// without its report.json answers that the report is missing, as a disk
// fault (code io, Permanent): the result is lost, the server is not at fault.
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
		if Classify(err).Code != wire.CodeIO || !errContains(err, "persisted report missing") {
			t.Fatalf("resume after a restart with the report gone answered %v, want the missing report", err)
		}
	})
}

// reportWrites is a filesystem that keeps each buffer written to a
// report.json's temp file, so a test can tell which encoding reached disk.
type reportWrites struct {
	fault.OS
	written *[][]byte
}

func (fs reportWrites) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != "report.json.tmp" {
		return f, err
	}
	return reportFile{f, fs.written}, nil
}

type reportFile struct {
	fault.File
	written *[][]byte
}

func (f reportFile) Write(p []byte) (int, error) {
	*f.written = append(*f.written, p)
	return f.File.Write(p)
}

// TestReportEncodedOnce: a durable session encodes its report once, at
// close. Over the wire its report.json holds the bytes of its Report
// frame, which are json.Marshal of the same trace's in-process report; and
// a closing driver (Server.Attach) is handed the very buffer that was
// written to report.json, not a second encoding.
func TestReportEncodedOnce(t *testing.T) {
	names := []string{"ST-WDC", "FTO-HB", "ST-DC"}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(40000, 2)
	want := batchReport(t, tr, names)
	if !bytes.Contains(want, []byte(`"races":[`)) {
		t.Fatal("the trace has no races to report")
	}
	var written [][]byte
	dir := t.TempDir()
	s, addr := startTCP(t, Config{DataDir: dir, IdleTimeout: -1, FS: reportWrites{written: &written}})
	reportJSON := func(id string) []byte {
		t.Helper()
		doc, err := os.ReadFile(filepath.Join(dir, "sessions", id, "report.json"))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Open(SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	frame, err := rs.CloseJSON()
	if err != nil {
		t.Fatal(err)
	}
	if disk := reportJSON(rs.ID()); !bytes.Equal(disk, frame) || !bytes.Equal(frame, want) {
		t.Errorf("report.json (%d bytes), the Report frame (%d) and json.Marshal of the in-process report (%d) differ",
			len(disk), len(frame), len(want))
	}

	written = nil
	att, ack, err := s.Attach(context.Background(), &HelloPayload{Session: SessionConfig{Analyses: names}})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]byte, len(tr.Events)*trace.RecordSize)
	trace.PutRecords(recs, tr.Events)
	if err := att.FeedRecords(recs); err != nil {
		t.Fatal(err)
	}
	doc, err := att.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 1 || len(doc) == 0 || &written[0][0] != &doc[0] {
		t.Errorf("report.json got %d writes, none of them the %d-byte document the driver was handed", len(written), len(doc))
	}
	if !bytes.Equal(reportJSON(ack.Session), want) || !bytes.Equal(doc, want) {
		t.Error("the attached session's report differs from the in-process report")
	}
}
