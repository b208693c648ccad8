package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
	_ "repro/internal/unopt" // the reference cells of TestUnstructuredPrecisionPreserving
	"repro/internal/workload"
)

var stRelations = []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC}

// unstructure returns tr with some of its lock releases out of nesting
// order: where one thread's consecutive events are rel(m); rel(n), a coin
// (heads three times in four) decides whether rel(n) is hoisted in front of rel(m). Releasing n earlier
// than recorded is always well formed — the thread holds n at rel(m), and
// nobody waited for it — so the result passes trace.MustCheck. No release
// moves twice, so of a three-deep nest c,b,a both b,c,a and c,a,b occur.
func unstructure(tr *trace.Trace, seed int64) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	hoisted := make([]int32, len(tr.Events)) // i → 1 + index of the release emitted just before event i
	moved := make([]bool, len(tr.Events))
	last := make([]int, tr.Threads) // 1 + index of t's previous event when that is a release still in place
	for j, e := range tr.Events {
		i := last[e.T] - 1
		last[e.T] = 0
		if e.Op != trace.OpRelease {
			continue
		}
		if i >= 0 && r.Intn(4) != 0 {
			hoisted[i], moved[j] = int32(j)+1, true
		} else {
			last[e.T] = j + 1
		}
	}
	out := *tr
	out.Events = make([]trace.Event, 0, len(tr.Events))
	for i, e := range tr.Events {
		if moved[i] {
			continue
		}
		if h := hoisted[i]; h > 0 {
			out.Events = append(out.Events, tr.Events[h-1])
		}
		out.Events = append(out.Events, e)
	}
	return trace.MustCheck(&out)
}

// goldenRandomConfigs spans threads 2–6 × nesting depth 1–4 × fork/join on
// and off, with enough locks that the depth is reached.
func goldenRandomConfigs() []workload.RandomConfig {
	cfgs := make([]workload.RandomConfig, 400)
	for i := range cfgs {
		depth := 1 + (i/5)%4
		cfgs[i] = workload.RandomConfig{
			Seed: int64(i), Threads: 2 + i%5, MaxDepth: depth, ForkJoin: (i/20)%2 == 1,
			Vars: 3 + i%4, Locks: depth + i%3, Volatiles: i % 3, Events: 400,
			PAcquire: 0.2, PRelease: 0.12,
		}
	}
	return cfgs
}

// digest folds the JSON reports of ST-WCP, ST-DC and ST-WDC over each trace
// into one hash.
func digest(t *testing.T, traces []*trace.Trace) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, tr := range traces {
		for _, rel := range stRelations {
			a := run(t, rel, tr)
			if err := enc.Encode(report.AnalysisJSON("ST-"+rel.String(), a.Races())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// programTraces returns the program traces of TestGoldenReports: every
// workload program at ≈ 60k events, seeds 1–3.
func programTraces() []*trace.Trace {
	var trs []*trace.Trace
	for _, p := range workload.Programs {
		div := max(1, int(p.PaperEventsM*1e6/60000))
		for seed := int64(1); seed <= 3; seed++ {
			trs = append(trs, p.Generate(div, seed))
		}
	}
	return trs
}

// TestGoldenReports pins the reports of the three SmartTrack cells to the
// bytes the PR 22 tree produced (the slice-copying CS lists and 144-byte
// variable slots this package had through PR 22): nothing else in the tree
// compares core with anything but itself. A failure here means a change to
// core altered a report; the digests are regenerated only for a deliberate
// change to the algorithm or the generators, by pasting the values the
// failure prints.
func TestGoldenReports(t *testing.T) {
	programs := programTraces()
	var random []*trace.Trace
	for _, cfg := range goldenRandomConfigs() {
		random = append(random, workload.Random(cfg))
	}
	variants := func(trs []*trace.Trace) []*trace.Trace {
		out := make([]*trace.Trace, len(trs))
		for i, tr := range trs {
			out[i] = unstructure(tr, int64(i))
		}
		return out
	}
	for _, g := range []struct {
		name   string
		traces []*trace.Trace
		want   string
	}{
		{"programs", programs, goldenPrograms},
		{"programs/unstructured", variants(programs), goldenProgramsUnstructured},
		{"random", random, goldenRandom},
		{"random/unstructured", variants(random), goldenRandomUnstructured},
	} {
		if got := digest(t, g.traces); got != g.want {
			t.Errorf("%s: digest %s, want %s", g.name, got, g.want)
		}
	}
}

// The generators' races come from injected patterns that a swapped pair of
// releases leaves alone, so the two program digests coincide.
const (
	goldenPrograms             = "1539cb4d376d811e68743c24210988492a0ace988ec950957c3398406c0e170f"
	goldenProgramsUnstructured = "1539cb4d376d811e68743c24210988492a0ace988ec950957c3398406c0e170f"
	goldenRandom               = "67723e89838ed24e63f17d458047a7dd240da794a9d87e2eb8a641909072aab6"
	goldenRandomUnstructured   = "fb1ed3683604a5a8a15ee1d6781f283fb48319d8af3f8bf88cd1f27a923d315c"
)

// TestUnstructuredPrecisionPreserving is conformance's
// TestOptimizationsPrecisionPreserving for non-block-structured locking,
// which workload.Random never generates and race/sync programs produce
// freely: SmartTrack's racing-variable set equals the unoptimized
// analysis's for every relation.
func TestUnstructuredPrecisionPreserving(t *testing.T) {
	swapped := 0
	for i, cfg := range goldenRandomConfigs() {
		base := workload.Random(cfg)
		tr := unstructure(base, int64(i))
		for j := range tr.Events {
			if tr.Events[j] != base.Events[j] {
				swapped++
				break
			}
		}
		for _, rel := range stRelations {
			ref, _ := analysis.Lookup(rel, analysis.Unopt)
			want := analysis.Run(ref.NewFor(tr), tr).RaceVars()
			got := run(t, rel, tr).Races().RaceVars()
			if !slices.Equal(want, got) {
				t.Fatalf("config %d (%+v) %v: Unopt races on %v, SmartTrack on %v", i, cfg, rel, want, got)
			}
		}
	}
	if swapped < 200 {
		t.Errorf("only %d of 400 traces had a release moved; the transform is not exercising anything", swapped)
	}
}

// goldenCases is what TestGoldenCaseCounts pins: a cell's Stats, and its
// same-epoch accesses, which are the accesses fed minus its NSEAs.
type goldenCases struct {
	ReadSameEpoch, WriteSameEpoch uint64
	analysis.Stats
}

// TestGoldenCaseCounts pins how often each FTO case fires (Stats) in the
// three SmartTrack cells, summed over TestGoldenReports' program traces: a
// change to the per-variable metadata that leaves the reports alone must
// also take every case branch it took before. These are the counts behind
// the paper's Table 12 on this repository's generated programs.
func TestGoldenCaseCounts(t *testing.T) {
	programs := programTraces()
	for _, g := range []struct {
		rel  analysis.Relation
		want goldenCases
	}{
		{analysis.WCP, goldenCasesWCP},
		{analysis.DC, goldenCasesDC},
		{analysis.WDC, goldenCasesWDC},
	} {
		var got goldenCases
		for _, tr := range programs {
			c := run(t, g.rel, tr).Stats()
			for _, e := range tr.Events {
				switch e.Op {
				case trace.OpRead:
					got.ReadSameEpoch++
				case trace.OpWrite:
					got.WriteSameEpoch++
				}
			}
			got.ReadSameEpoch -= c.NSEAReads()
			got.WriteSameEpoch -= c.NSEAWrites()
			got.ReadOwned += c.ReadOwned
			got.ReadSharedOwned += c.ReadSharedOwned
			got.ReadExclusive += c.ReadExclusive
			got.ReadShare += c.ReadShare
			got.ReadShared += c.ReadShared
			got.WriteOwned += c.WriteOwned
			got.WriteExclusive += c.WriteExclusive
			got.WriteShared += c.WriteShared
			for i, n := range c.HeldAtNSEA {
				got.HeldAtNSEA[i] += n
			}
		}
		if got != g.want {
			t.Errorf("ST-%v: case counts\n%+v\nwant\n%+v", g.rel, got, g.want)
		}
	}
}

// The same-epoch and held-lock counts do not depend on the relation: the
// same-epoch tests compare the thread's own component of its clock, which
// every relation ticks at the same events.
var (
	goldenCasesWCP = goldenCases{
		ReadSameEpoch: 1924218, WriteSameEpoch: 7848,
		Stats: analysis.Stats{
			ReadOwned: 72539, ReadSharedOwned: 1288,
			ReadExclusive: 15901, ReadShare: 2650, ReadShared: 2404,
			WriteOwned: 39300, WriteExclusive: 59682, WriteShared: 2012,
			HeldAtNSEA: [4]uint64{106508, 12295, 69603, 7370},
		},
	}
	goldenCasesDC = goldenCases{
		ReadSameEpoch: 1924218, WriteSameEpoch: 7848,
		Stats: analysis.Stats{
			ReadOwned: 72371, ReadSharedOwned: 1784,
			ReadExclusive: 13601, ReadShare: 3666, ReadShared: 3360,
			WriteOwned: 39055, WriteExclusive: 59114, WriteShared: 2825,
			HeldAtNSEA: [4]uint64{106508, 12295, 69603, 7370},
		},
	}
	goldenCasesWDC = goldenCases{
		ReadSameEpoch: 1924218, WriteSameEpoch: 7848,
		Stats: analysis.Stats{
			ReadOwned: 72370, ReadSharedOwned: 1792,
			ReadExclusive: 13575, ReadShare: 3676, ReadShared: 3369,
			WriteOwned: 39052, WriteExclusive: 59109, WriteShared: 2833,
			HeldAtNSEA: [4]uint64{106508, 12295, 69603, 7370},
		},
	}
)
