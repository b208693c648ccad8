package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/workload"
	"repro/race"
)

// batchReport computes the in-process truth: one engine over the whole
// trace, canonical JSON.
func batchReport(t *testing.T, tr *race.Trace, names []string) []byte {
	t.Helper()
	eng, err := race.NewEngine(race.WithAnalysisNames(names...))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// feedChunks pushes tr.Events[from:to] into the session in fixed chunks.
func feedChunks(t *testing.T, sess *Session, tr *race.Trace, from, to, chunk int) {
	t.Helper()
	for off := from; off < to; off += chunk {
		end := min(off+chunk, to)
		batch := append([]race.Event(nil), tr.Events[off:end]...)
		if err := sess.Feed(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumedSessionMatchesBatchAnalyzeAllCells is the tentpole's
// resumption acceptance: a durable session killed mid-stream (graceful
// shutdown after a flush barrier, then a fresh server process over the
// same data dir) and resumed at the accepted offset produces a report
// byte-identical to uninterrupted batch Analyze — with the full 15-cell
// Table 1 fan-out in one session.
func TestResumedSessionMatchesBatchAnalyzeAllCells(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}
	p, _ := workload.ProgramByName("avrora")
	traces := map[string]*race.Trace{
		"avrora": p.Generate(400000, 3),
		"channels": workload.Channels(workload.ChannelsConfig{
			Seed: 5, Threads: 6, Chans: 4, MaxCap: 3, Locks: 2, Vars: 6, Events: 2000,
		}),
	}

	for trName, tr := range traces {
		want := batchReport(t, tr, names)
		dir := t.TempDir()

		// Process 1: stream the first half, flush (ack ⇒ journaled +
		// synced + analyzed), keep streaming a bit past the flush, then
		// die gracefully mid-stream.
		s1 := New(Config{DataDir: dir, IdleTimeout: -1})
		sess1, err := s1.OpenSession(SessionConfig{Analyses: names})
		if err != nil {
			t.Fatal(err)
		}
		id := sess1.ID
		mid := len(tr.Events) / 2
		feedChunks(t, sess1, tr, 0, mid, 501)
		if err := sess1.Flush(); err != nil {
			t.Fatal(err)
		}
		extra := min(mid+777, len(tr.Events))
		feedChunks(t, sess1, tr, mid, extra, 113)
		if err := s1.Shutdown(); err != nil {
			t.Fatal(err)
		}

		// Process 2: recover, resume at the accepted offset, finish.
		s2 := New(Config{DataDir: dir, IdleTimeout: -1})
		t.Cleanup(func() { s2.Close() })
		resumed, err := s2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if resumed != 1 {
			t.Fatalf("%s: recovered %d sessions, want 1", trName, resumed)
		}
		sess2, ok := s2.Session(id)
		if !ok {
			t.Fatalf("%s: session %s not live after recovery", trName, id)
		}
		off := sess2.Fed()
		if off < uint64(mid) || off > uint64(extra) {
			t.Fatalf("%s: resume offset %d outside [%d, %d]", trName, off, mid, extra)
		}
		feedChunks(t, sess2, tr, int(off), len(tr.Events), 497)
		rep, err := sess2.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: resumed report differs from uninterrupted batch Analyze\n--- resumed ---\n%s\n--- batch ---\n%s",
				trName, got, want)
		}
	}
}

// TestHardCrashRecovery: no graceful shutdown at all — the first server is
// simply abandoned after a flush barrier (its sessions never told; the
// journal's durable prefix is whatever the barrier synced). Recovery must
// resume from at least the acked offset and the finished report must still
// match batch Analyze.
func TestHardCrashRecovery(t *testing.T) {
	names := []string{"ST-WDC", "FTO-HB"}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 11, Threads: 5, Chans: 3, MaxCap: 2, Locks: 2, Vars: 5, Events: 3000,
	})
	want := batchReport(t, tr, names)
	dir := t.TempDir()

	s1 := New(Config{DataDir: dir, IdleTimeout: -1})
	sess1, err := s1.OpenSession(SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	id := sess1.ID
	mid := len(tr.Events) / 2
	feedChunks(t, sess1, tr, 0, mid, 251)
	if err := sess1.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: s1 is never shut down or closed. (Its goroutines idle until
	// the test process exits — exactly a killed process, minus the exit.)

	s2 := New(Config{DataDir: dir, IdleTimeout: -1})
	t.Cleanup(func() { s2.Close() })
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	sess2, ok := s2.Session(id)
	if !ok {
		t.Fatalf("session %s not recovered", id)
	}
	off := sess2.Fed()
	if off < uint64(mid) {
		t.Fatalf("recovery lost acked events: offset %d < flushed %d", off, mid)
	}
	feedChunks(t, sess2, tr, int(off), len(tr.Events), 389)
	rep, err := sess2.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	if !bytes.Equal(got, want) {
		t.Errorf("crash-recovered report differs from batch Analyze\n--- recovered ---\n%s\n--- batch ---\n%s", got, want)
	}
}

// startDurableTCP boots a wire-serving server over dir.
func startDurableTCP(t *testing.T, dir string) (*Server, net.Listener, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{DataDir: dir, IdleTimeout: -1})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	go s.ServeTCP(lis)
	return s, lis, lis.Addr().String()
}

// TestWireResumeAfterRestart drives resumption end to end over the wire
// protocol: stream half a trace, flush, kill the server (listener closed,
// graceful shutdown), restart over the same data dir, Resume the session
// id, send the rest from the acked offset, and compare the final report
// with batch Analyze.
func TestWireResumeAfterRestart(t *testing.T) {
	names := []string{"ST-WDC", "ST-DC", "FTO-HB"}
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(400000, 9)
	want := batchReport(t, tr, names)
	dir := t.TempDir()

	s1, lis1, addr1 := startDurableTCP(t, dir)
	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	sess1, err := c1.Open(SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	sess1.batchSize = 333
	id := sess1.ID()
	mid := len(tr.Events) / 2
	if err := sess1.FeedBatch(tr.Events[:mid]); err != nil {
		t.Fatal(err)
	}
	if err := sess1.Flush(); err != nil {
		t.Fatal(err)
	}
	// Kill the first server: connection drops, journals sync and seal.
	lis1.Close()
	c1.Close()
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2, lis2, addr2 := startDurableTCP(t, dir)
	t.Cleanup(func() { lis2.Close(); s2.Close() })
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess2, fed, err := c2.Resume(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if fed < uint64(mid) {
		t.Fatalf("resume offset %d lost acked events (flushed %d)", fed, mid)
	}
	if fed > uint64(len(tr.Events)) {
		t.Fatalf("resume offset %d beyond the stream (%d events)", fed, len(tr.Events))
	}
	if err := sess2.FeedBatch(tr.Events[fed:]); err != nil {
		t.Fatal(err)
	}
	rep, err := sess2.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	if !bytes.Equal(got, want) {
		t.Errorf("wire-resumed report differs from batch Analyze\n--- resumed ---\n%s\n--- batch ---\n%s", got, want)
	}
}

// TestFinishedReportSurvivesRestart: a cleanly closed durable session's
// report is served by the next process from report.json, byte-identical.
func TestFinishedReportSurvivesRestart(t *testing.T) {
	names := []string{"ST-WDC"}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 3, Threads: 4, Chans: 2, MaxCap: 2, Locks: 1, Vars: 4, Events: 800,
	})
	dir := t.TempDir()

	s1 := New(Config{DataDir: dir, IdleTimeout: -1})
	sess1, err := s1.OpenSession(SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	id := sess1.ID
	feedChunks(t, sess1, tr, 0, len(tr.Events), 191)
	rep1, err := sess1.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(rep1)
	s1.Shutdown()

	s2 := New(Config{DataDir: dir, IdleTimeout: -1})
	t.Cleanup(func() { s2.Close() })
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	fin, ok := s2.Finished(id)
	if !ok {
		t.Fatalf("finished session %s not recovered", id)
	}
	rep2, err := fin.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep2)
	if !bytes.Equal(got, want) {
		t.Errorf("persisted report differs after restart\n--- restarted ---\n%s\n--- original ---\n%s", got, want)
	}
}

// TestDurableVindicatingSessionReport: on a durable server a vindicating
// session vindicates from its journal at close; the report must stay
// byte-identical to an in-memory vindicating engine's, and nothing but the
// journal may hold the stream on disk.
func TestDurableVindicatingSessionReport(t *testing.T) {
	b := race.NewBuilder()
	b.Fork("T0", "T1")
	b.Fork("T0", "T2")
	b.Write("T1", "x")
	b.Write("T2", "x")
	b.Join("T0", "T1")
	b.Join("T0", "T2")
	tr := b.Build()

	eng, err := race.NewEngine(race.WithAnalysisNames("ST-WDC"), race.WithVindication())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	local, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(local)

	dir := t.TempDir()
	s := New(Config{DataDir: dir, IdleTimeout: -1})
	t.Cleanup(func() { s.Close() })
	sess, err := s.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}, Vindicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	if !bytes.Equal(got, want) {
		t.Errorf("durable vindicating session report differs from in-memory engine\n%s\nvs\n%s", got, want)
	}
	journalIsTheOnlyCopy(t, dir, sess.ID)
}

// journalIsTheOnlyCopy fails unless dir holds no spill entry and every
// racelog segment under it belongs to the journal of session id.
func journalIsTheOnlyCopy(t *testing.T, dir, id string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, "spill")); !os.IsNotExist(err) {
		t.Errorf("data dir has a spill entry (stat: %v)", err)
	}
	journal := filepath.Join(dir, "sessions", id, "journal")
	var all, journaled int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".rlog" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		all += info.Size()
		if filepath.Dir(path) == journal {
			journaled += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if journaled == 0 || all != journaled {
		t.Errorf("data dir holds %d racelog bytes, the session journal %d", all, journaled)
	}
}

// TestVindicatingJournalIsTheOnlyCopy: a vindicating durable session fed
// more than 2^20 events — the threshold past which its engine used to spill
// the stream into a second racelog under the data dir — crashes after a
// flush barrier and is recovered from its journal by a second server, which
// takes the rest of the stream and closes it. The journal stays the only
// copy of the stream on disk, and the verdicts are the in-memory engine's.
func TestVindicatingJournalIsTheOnlyCopy(t *testing.T) {
	names := []string{"ST-WDC"}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(1100, 3)
	crashAt := 1<<20 + 4096
	if tr.Len() < crashAt+4096 {
		t.Fatalf("trace has %d events, want more than %d", tr.Len(), crashAt+4096)
	}
	dir := t.TempDir()
	s1 := New(Config{DataDir: dir, IdleTimeout: -1})
	sess1, err := s1.OpenSession(SessionConfig{Analyses: names, Vindicate: true})
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(t, sess1, tr, 0, crashAt, 4096)
	if err := sess1.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: s1 is abandoned, never shut down or closed.

	s2 := New(Config{DataDir: dir, IdleTimeout: -1})
	t.Cleanup(func() { s2.Close() })
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	sess2, ok := s2.Session(sess1.ID)
	if !ok {
		t.Fatalf("session %s not recovered", sess1.ID)
	}
	feedChunks(t, sess2, tr, int(sess2.Fed()), tr.Len(), 4096)
	rep, err := sess2.Close()
	if err != nil {
		t.Fatal(err)
	}
	journalIsTheOnlyCopy(t, dir, sess1.ID)

	eng, err := race.NewEngine(race.WithAnalysisNames(names...), race.WithVindication())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	local, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	want, _ := json.Marshal(local)
	if !bytes.Equal(got, want) {
		t.Errorf("crash-recovered vindicating session report differs from the in-memory engine's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestEvictedDurableSessionStaysResumable: idle eviction reclaims the
// pool slot but must not destroy the journal's resumability — the session
// stays "open" on disk and a restarted server resumes it.
func TestEvictedDurableSessionStaysResumable(t *testing.T) {
	names := []string{"ST-WDC"}
	tr := workload.Channels(workload.ChannelsConfig{
		Seed: 13, Threads: 4, Chans: 2, MaxCap: 2, Locks: 1, Vars: 4, Events: 1000,
	})
	want := batchReport(t, tr, names)
	dir := t.TempDir()

	now := time.Now()
	clock := func() time.Time { return now }
	s1 := New(Config{DataDir: dir, IdleTimeout: time.Minute, now: clock})
	sess1, err := s1.OpenSession(SessionConfig{Analyses: names})
	if err != nil {
		t.Fatal(err)
	}
	id := sess1.ID
	mid := len(tr.Events) / 2
	feedChunks(t, sess1, tr, 0, mid, 97)
	if err := sess1.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s1.EvictIdle(now.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	s1.Close()

	meta, err := readSessionMeta(fault.OS{}, s1.sessionsRoot()+"/"+id)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != stateOpen {
		t.Fatalf("evicted durable session persisted state %q, want %q", meta.State, stateOpen)
	}

	s2 := New(Config{DataDir: dir, IdleTimeout: -1})
	t.Cleanup(func() { s2.Close() })
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	sess2, ok := s2.Session(id)
	if !ok {
		t.Fatalf("evicted session %s not resumable after restart", id)
	}
	feedChunks(t, sess2, tr, int(sess2.Fed()), len(tr.Events), 89)
	rep, err := sess2.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	if !bytes.Equal(got, want) {
		t.Errorf("evicted-then-resumed report differs from batch Analyze")
	}
}

// TestResumeRejections: resuming an unknown id fails with an Error frame;
// resuming a session already attached to a connection fails with ErrBusy.
func TestResumeRejections(t *testing.T) {
	dir := t.TempDir()
	_, lis, addr := startDurableTCP(t, dir)
	t.Cleanup(func() { lis.Close() })

	ctx := context.Background()
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, _, err := c1.Resume(ctx, "s999999"); err == nil {
		t.Fatal("resume of unknown session succeeded")
	}

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sess, err := c2.Open(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, _, err := c3.Resume(ctx, sess.ID()); err == nil || !errContains(err, "attached") {
		t.Fatalf("resume of attached session: %v, want busy rejection", err)
	}
}

// TestClientContext: DialContext and OpenContext respect deadlines and
// cancellation instead of blocking indefinitely.
func TestClientContext(t *testing.T) {
	// A listener that accepts and then never speaks the protocol.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow bytes forever; never reply.
			buf := make([]byte, 1024)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	c, err := DialContext(ctx, lis.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.OpenContext(ctx, SessionConfig{}); err == nil {
		t.Fatal("handshake against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("handshake ignored the deadline (took %v)", elapsed)
	}

	// Pre-canceled context fails fast without touching the network.
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.OpenContext(canceled, SessionConfig{}); err == nil {
		t.Fatal("handshake with canceled context succeeded")
	}
}

// TestSessionListingAndPerSessionMetrics covers the observability
// satellites: GET /sessions reports state/events/races per session, and
// the metrics snapshot carries per-session event counts.
func TestSessionListingAndPerSessionMetrics(t *testing.T) {
	s := New(Config{IdleTimeout: -1})
	t.Cleanup(func() { s.Close() })

	b := race.NewBuilder()
	b.Fork("T0", "T1")
	b.Write("T0", "x")
	b.Write("T1", "x")
	tr := b.Build()

	open, err := s.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := open.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	if err := open.Flush(); err != nil {
		t.Fatal(err)
	}

	closed, err := s.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	if _, err := closed.Close(); err != nil {
		t.Fatal(err)
	}

	list := s.Sessions()
	if len(list) != 2 {
		t.Fatalf("listing has %d sessions, want 2: %+v", len(list), list)
	}
	byID := make(map[string]SessionStatus)
	for _, st := range list {
		byID[st.ID] = st
	}
	if st := byID[open.ID]; st.State != "streaming" || st.Events != uint64(len(tr.Events)) || st.Races == 0 {
		t.Errorf("streaming session status %+v", st)
	}
	if st := byID[closed.ID]; st.State != "finished" || st.Events != uint64(len(tr.Events)) || st.Races == 0 {
		t.Errorf("finished session status %+v", st)
	}
}
