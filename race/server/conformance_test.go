package server

import (
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/race"
)

// startTCP spins up a server on a loopback listener and returns its
// address; cleanup closes everything.
func startTCP(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	go s.ServeTCP(lis)
	t.Cleanup(func() {
		lis.Close()
		s.Close()
	})
	return s, lis.Addr().String()
}

// streamRemote runs one full wire-protocol session: dial, handshake,
// stream the trace in odd-sized batches (so frame boundaries never align
// with the trace's structure), flush midway, close, return the report.
func streamRemote(addr string, cfg SessionConfig, tr *race.Trace, batch int) (*race.Report, error) {
	client, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	sess, err := client.Open(cfg)
	if err != nil {
		return nil, err
	}
	sess.batchSize = batch
	mid := len(tr.Events) / 2
	if err := sess.FeedBatch(tr.Events[:mid]); err != nil {
		return nil, err
	}
	if err := sess.Flush(); err != nil {
		return nil, err
	}
	for _, ev := range tr.Events[mid:] {
		if err := sess.Feed(ev); err != nil {
			return nil, err
		}
	}
	return sess.Close()
}

// conformanceTraces is the workload spread for the wire-protocol
// conformance check.
func conformanceTraces(t *testing.T) map[string]*race.Trace {
	t.Helper()
	out := make(map[string]*race.Trace)
	for _, name := range []string{"avrora", "pmd"} {
		p, ok := workload.ProgramByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		out[name] = p.Generate(400000, 1)
	}
	out["channels"] = workload.Channels(workload.ChannelsConfig{
		Seed: 2, Threads: 6, Chans: 4, MaxCap: 3, Locks: 2, Vars: 6, Events: 2000,
	})
	return out
}

// TestWireReportsMatchBatchAnalyzeAllCells is the tentpole's conformance
// claim: for every workload, the report a raced server computes for a
// session streamed over the wire protocol is byte-for-byte identical
// (canonical JSON) to in-process batch analysis — with the full 15-cell
// Table 1 fan-out in one session.
func TestWireReportsMatchBatchAnalyzeAllCells(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}
	_, addr := startTCP(t, Config{})
	for trName, tr := range conformanceTraces(t) {
		// In-process truth: one engine running all 15 cells over the trace.
		eng, err := race.NewEngine(race.WithAnalysisNames(names...), race.WithCapacityHints(race.HintsOf(tr)))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedTrace(tr); err != nil {
			t.Fatal(err)
		}
		local, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(local)
		if err != nil {
			t.Fatal(err)
		}

		for _, batch := range []int{1, 7, 2048} {
			remote, err := streamRemote(addr, SessionConfig{Analyses: names}, tr, batch)
			if err != nil {
				t.Fatalf("%s (batch %d): %v", trName, batch, err)
			}
			got, err := json.Marshal(remote)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s (batch %d): wire report differs from batch Analyze\n--- remote ---\n%s\n--- local ---\n%s",
					trName, batch, got, want)
			}
		}
	}
}

// TestWireVindicationMatches: vindication verdicts computed server-side
// round-trip through the report JSON identically to local analysis.
func TestWireVindicationMatches(t *testing.T) {
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
	if err := eng.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}
	local, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(local)

	_, addr := startTCP(t, Config{})
	remote, err := streamRemote(addr, SessionConfig{Analyses: []string{"ST-WDC"}, Vindicate: true}, tr, 512)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(remote)
	if !bytes.Equal(got, want) {
		t.Errorf("vindicated wire report differs:\n%s\nvs\n%s", got, want)
	}
	idx := remote.Races()[0].Index
	if res, ok := remote.Vindication(idx); !ok || !res.Vindicated || len(res.Witness) == 0 {
		t.Errorf("remote vindication verdict lost: %+v", res)
	}
}

// TestConcurrentSessionsStress is the multi-tenant acceptance run: ≥8
// concurrent wire-protocol sessions (run under -race in CI), one of which
// drives a poisoned engine that panics mid-stream. Every healthy session
// must produce a report identical to in-process analysis; the poisoned one
// must fail cleanly without disturbing the rest.
func TestConcurrentSessionsStress(t *testing.T) {
	const sessions = 9
	poisoned := 4 // index of the tenant with the panicking engine

	_, addr := startTCP(t, Config{MaxSessions: sessions, newSink: poisonedFactory})

	p, _ := workload.ProgramByName("h2")
	names := []string{"ST-WDC", "FTO-HB", "ST-DC"}
	type result struct {
		id  int
		rep *race.Report
		err error
	}
	results := make(chan result, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr := p.Generate(400000, int64(id+1))
			cfg := SessionConfig{Analyses: names}
			if id == poisoned {
				cfg.Analyses = []string{"PANIC"}
			}
			rep, err := streamRemote(addr, cfg, tr, 128+id*37)
			results <- result{id, rep, err}
		}(i)
	}
	wg.Wait()
	close(results)

	for res := range results {
		if res.id == poisoned {
			if res.err == nil {
				t.Errorf("poisoned session %d succeeded", res.id)
			}
			continue
		}
		if res.err != nil {
			t.Errorf("session %d failed: %v", res.id, res.err)
			continue
		}
		tr := p.Generate(400000, int64(res.id+1))
		eng, err := race.NewEngine(race.WithAnalysisNames(names...), race.WithCapacityHints(race.HintsOf(tr)))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedTrace(tr); err != nil {
			t.Fatal(err)
		}
		local, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		got, _ := json.Marshal(res.rep)
		if !bytes.Equal(got, want) {
			t.Errorf("session %d: remote report differs from local analysis", res.id)
		}
	}

	// The server survived: it still admits and serves new sessions.
	rep, err := streamRemote(addr, SessionConfig{Analyses: []string{"ST-WDC"}}, p.Generate(400000, 99), 512)
	if err != nil {
		t.Fatalf("post-stress session failed: %v", err)
	}
	if rep == nil {
		t.Fatal("post-stress session returned no report")
	}
}

// TestWireProtocolErrors: handshake and mid-session protocol failures
// produce Error frames, not hung connections or crashed servers.
func TestWireProtocolErrors(t *testing.T) {
	_, addr := startTCP(t, Config{MaxSessions: 1})

	// Unknown analysis name → rejected at handshake.
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Open(SessionConfig{Analyses: []string{"NO-SUCH"}}); err == nil {
		t.Fatal("bad analysis name accepted at handshake")
	}

	// Admission control over the wire: second concurrent session refused.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s2, err := c2.Open(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Open(SessionConfig{}); err == nil || !errContains(err, "session limit") {
		t.Fatalf("over-limit session: %v, want ErrServerFull over the wire", err)
	}

	// Ill-formed stream → error surfaces at Flush, session ends.
	if err := s2.Feed(race.Event{T: 0, Op: race.OpRelease, Targ: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err == nil {
		t.Fatal("ill-formed stream not reported over the wire")
	}
}

func errContains(err error, sub string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(sub))
}
