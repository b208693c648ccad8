package race_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// goldenVindication pins the full report JSON — verdicts, reasons and
// witnesses — of a vindicating ST-WDC + ST-DC engine over four generated
// programs (seed 11), as read at PR 27. Nothing else in the tree can tell a
// changed witness search from the old one: the oracle tests check soundness,
// not which witness was found.
var goldenVindication = []struct {
	program string
	div     int
	bytes   int
	sha256  string
	long    bool
}{
	{"h2", 4000, 15565, "49f19746e494893b5bc5db741322e1a2c13834abda5337e7e49afe1e66f4a26f", false},
	{"pmd", 4000, 623661, "3cbe2fedf8f2da6f5e396582aa5a98d85d12b1f6df74fa7103c5fdff729b7e9e", false},
	{"avrora", 1000, 594498, "8d27e5323bda6128c6391617dcca120ab340eea12dead9f2272e89eb8ec03503", false},
	{"xalan", 1000, 1138845, "801a231e349c38625b229854c543df4ddcef1e5f59adcd797769a26fdc66005d", true},
}

// vindicatingReport feeds tr to a vindicating ST-WDC + ST-DC engine built
// with the extra options and returns the Close report's JSON.
func vindicatingReport(t *testing.T, tr *race.Trace, extra ...race.Option) []byte {
	t.Helper()
	opts := append([]race.Option{race.WithVindication(), race.WithAnalysisNames(goldenNames...)}, extra...)
	eng, err := race.NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedTrace(tr); err != nil {
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

// goldenNames are the analyses of the pinned reports.
var goldenNames = []string{"ST-WDC", "ST-DC"}

// reportVindicated closes a non-retaining engine over tr and vindicates its
// report against tr afterwards.
func reportVindicated(t *testing.T, tr *race.Trace) []byte {
	t.Helper()
	eng, err := race.NewEngine(race.WithAnalysisNames(goldenNames...))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Vindicate(tr); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// durableReport streams tr through a vindicating session of a durable
// server. With crash set, the first server is abandoned mid-stream after a
// flush barrier (a killed process), and a second one over the same data dir
// recovers the session from its journal and takes the rest of the stream.
// The session's engine retains nothing: its verdicts come from the journal,
// and no other copy of the stream lands in the data dir.
func durableReport(t *testing.T, tr *race.Trace, crash bool) []byte {
	t.Helper()
	dir := t.TempDir()
	feed := func(sess *server.Session, from, to int) {
		t.Helper()
		for off := from; off < to; off += 4096 {
			if err := sess.Feed(tr.Events[off:min(off+4096, to)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := server.New(server.Config{DataDir: dir, IdleTimeout: -1})
	sess, err := srv.OpenSession(server.SessionConfig{Analyses: goldenNames, Vindicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if crash {
		mid := tr.Len() / 2
		feed(sess, 0, mid)
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		srv = server.New(server.Config{DataDir: dir, IdleTimeout: -1})
		if _, err := srv.Recover(); err != nil {
			t.Fatal(err)
		}
		var ok bool
		if sess, ok = srv.Session(sess.ID); !ok {
			t.Fatalf("session %s not recovered", sess.ID)
		}
	}
	t.Cleanup(func() { srv.Close() })
	feed(sess, int(sess.Enqueued()), tr.Len())
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spill")); !os.IsNotExist(err) {
		t.Errorf("data dir has a spill entry (stat: %v)", err)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestVindicationGoldenDigests: the sequential and the parallel engine,
// Report.Vindicate over the generated trace, a durable session vindicating
// from its journal, and one recovered from a crash all produce the pinned
// bytes.
func TestVindicationGoldenDigests(t *testing.T) {
	for _, g := range goldenVindication {
		t.Run(g.program, func(t *testing.T) {
			if g.long && testing.Short() {
				t.Skip("630k-event trace")
			}
			p, ok := workload.ProgramByName(g.program)
			if !ok {
				t.Fatalf("no program %q", g.program)
			}
			tr := p.Generate(g.div, 11)
			modes := []struct {
				name   string
				report func() []byte
			}{
				{"sequential", func() []byte { return vindicatingReport(t, tr) }},
				{"parallel", func() []byte { return vindicatingReport(t, tr, race.WithParallelism(2)) }},
				{"Report.Vindicate", func() []byte { return reportVindicated(t, tr) }},
				{"durable", func() []byte { return durableReport(t, tr, false) }},
				{"crash-recovered", func() []byte { return durableReport(t, tr, true) }},
			}
			for _, m := range modes {
				doc := m.report()
				sum := sha256.Sum256(doc)
				if got := hex.EncodeToString(sum[:]); len(doc) != g.bytes || got != g.sha256 {
					t.Errorf("%s: report is %d bytes, sha256 %s; pinned %d bytes, %s",
						m.name, len(doc), got, g.bytes, g.sha256)
				}
			}
		})
	}
}

// TestVindicationCloseAllocationCeiling: Close of the xalan/1000 vindicating
// engine replays, indexes and searches within 1,000 B per retained event
// (5,145 at PR 27, when every candidate pair rebuilt the four-table index
// and every restart allocated trace-sized scratch; about 490 with one index
// per trace), so a per-pair or per-restart trace-sized allocation cannot
// come back unnoticed.
func TestVindicationCloseAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("630k-event trace")
	}
	p, _ := workload.ProgramByName("xalan")
	tr := p.Generate(1000, 11)
	eng, err := race.NewEngine(race.WithVindication())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := eng.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	for _, rc := range rep.Races() {
		if _, ok := rep.Vindication(rc.Index); ok {
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Fatal("no verdicts: the ceiling measured nothing")
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
	t.Logf("Close: %d verdicts, %.0f B/event over %d events", verdicts, perEvent, tr.Len())
	if perEvent > 1000 {
		t.Errorf("Close allocated %.0f B/event, ceiling 1000", perEvent)
	}
}
