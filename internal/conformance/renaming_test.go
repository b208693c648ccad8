package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/workload"
)

// renameIDs returns tr with its id spaces permuted: variables, locks,
// volatiles, classes and, unless keepThreads, threads (fork and join targets
// with them). Seed 0 reverses each space, so the highest ids arrive first;
// any other seed draws a random permutation per space. Locations stay, so a
// race keeps its static identity.
func renameIDs(tr *trace.Trace, seed int64, keepThreads bool) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	perm := func(n int) []uint32 {
		p := make([]uint32, n)
		for i := range p {
			p[i] = uint32(n - 1 - i)
		}
		if seed != 0 {
			rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		}
		return p
	}
	x := trace.ExtentOf(tr.Events)
	threads := perm(x.Threads)
	if keepThreads {
		for i := range threads {
			threads[i] = uint32(i)
		}
	}
	target := map[trace.Op][]uint32{
		trace.OpRead: perm(x.Vars), trace.OpAcquire: perm(x.Locks),
		trace.OpVolatileRead: perm(x.Volatiles), trace.OpClassInit: perm(x.Classes),
		trace.OpFork: threads,
	}
	for op, same := range map[trace.Op]trace.Op{
		trace.OpWrite: trace.OpRead, trace.OpRelease: trace.OpAcquire, trace.OpVolatileWrite: trace.OpVolatileRead,
		trace.OpClassAccess: trace.OpClassInit, trace.OpJoin: trace.OpFork,
	} {
		target[op] = target[same]
	}
	out := &trace.Trace{Events: make([]trace.Event, len(tr.Events))}
	for i, e := range tr.Events {
		e.T = trace.Tid(threads[e.T])
		e.Targ = target[e.Op][e.Targ]
		out.Events[i] = e
	}
	return out
}

// cellReading is what a cell reports about a trace that no renaming of its
// ids may change.
type cellReading struct {
	static, dynamic int
	stats           analysis.Stats // zero for the cells without case counts
	edges           int            // -1 for the cells without a graph
}

func readCell(entry analysis.Entry, tr *trace.Trace) cellReading {
	a := entry.New()
	col := analysis.Run(a, tr)
	r := cellReading{static: col.Static(), dynamic: col.Dynamic(), edges: -1}
	if s, ok := a.(interface{ Stats() *analysis.Stats }); ok {
		r.stats = *s.Stats()
	}
	if g, ok := a.(interface{ Graph() *graph.Graph }); ok && entry.Caps.BuildsGraph {
		r.edges = g.Graph().Len()
	}
	return r
}

// threadOrdered reports the readings of entry that follow the order of the
// thread ids, not the trace alone, and so hold only under renamings that
// keep the threads. SmartTrack's [Write Shared] runs MultiCheck over the
// readers in thread order (Algorithm 3), and a rule (a) join made for one
// reader can order a later one before its race check: which write is a
// dynamic race follows the order. Rule (b) consumes a lock's owners in
// thread order and draws an edge only from an owner the releasing thread
// has not caught up with, so how many edges a WCP or DC graph keeps follows
// it too (which events reach which does not).
func threadOrdered(entry analysis.Entry) (dynamic, edges bool) {
	return entry.Level == analysis.SmartTrack, entry.Caps.BuildsGraph && entry.Relation != analysis.WDC
}

// checkRenamingInvariance runs every registered cell over tr and over tr
// renamed by each seed, once with the threads kept and once with them
// permuted too, and fails where a reading differs.
func checkRenamingInvariance(t *testing.T, id string, tr *trace.Trace, seeds ...int64) {
	t.Helper()
	if err := trace.Check(tr); err != nil {
		t.Fatalf("%s: the input is ill formed: %v", id, err)
	}
	type renaming struct {
		name string
		tr   *trace.Trace
		all  bool // the threads are permuted too
	}
	var renamed []renaming
	for _, seed := range seeds {
		for _, all := range []bool{false, true} {
			r := renaming{fmt.Sprintf("renaming %d (threads too: %v)", seed, all), renameIDs(tr, seed, !all), all}
			if err := trace.Check(r.tr); err != nil {
				t.Fatalf("%s, %s: the renamed trace is ill formed: %v", id, r.name, err)
			}
			renamed = append(renamed, r)
		}
	}
	for _, entry := range analysis.All() {
		want := readCell(entry, tr)
		dynamic, edges := threadOrdered(entry)
		for _, r := range renamed {
			got := readCell(entry, r.tr)
			if r.all && dynamic {
				got.dynamic = want.dynamic
			}
			if r.all && edges {
				got.edges = want.edges
			}
			if got != want {
				t.Errorf("%s, %s: %s reads %+v, %+v before the renaming", id, r.name, entry.Name, got, want)
			}
		}
	}
}

// TestIdRenamingInvariance: permuting a trace's id spaces changes no cell's
// static or dynamic race count, case counts (analysis.Stats) or constraint
// graph size, but for the readings threadOrdered names when the threads are
// permuted too. Every table grows to the ids it is fed, so the reversal,
// which feeds the highest id of every space first, drives every growth path
// from its largest step; the random permutations mix the order. Inputs:
// random traces over the workload.RandomConfig tuple and two DaCapo
// programs, whose class initializations the random generator does not emit.
func TestIdRenamingInvariance(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		tr := workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 2 + int(seed%6), Vars: 3 + int(seed%7), Locks: 1 + int(seed%4),
			Volatiles: int(seed % 3), Events: 1500, MaxDepth: 1 + int(seed%4), ForkJoin: seed%2 == 0,
		})
		checkRenamingInvariance(t, fmt.Sprintf("random-%d", seed), tr, 0, seed+1)
	}
	for _, name := range []string{"h2", "tomcat"} {
		p, _ := workload.ProgramByName(name)
		checkRenamingInvariance(t, name, p.Generate(40000, 3), 0, 1)
	}
}

// FuzzIdRenaming drives TestIdRenamingInvariance's check over the
// workload.RandomConfig tuple that FuzzReleaseSnapshots in internal/ccs
// draws from, and over the permutation's seed.
func FuzzIdRenaming(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint16(2000), uint8(3), true, int64(0))
	f.Add(int64(7), uint8(8), uint8(2), uint8(1), uint8(0), uint16(3000), uint8(1), false, int64(5))
	f.Add(int64(42), uint8(3), uint8(12), uint8(5), uint8(3), uint16(1500), uint8(4), true, int64(9))
	f.Fuzz(func(t *testing.T, seed int64, threads, vars, locks, volatiles uint8, events uint16, depth uint8, forkJoin bool, rename int64) {
		tr := workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 1 + int(threads%10), Vars: 1 + int(vars%16), Locks: 1 + int(locks%6),
			Volatiles: int(volatiles % 4), Events: int(events % 4000), MaxDepth: 1 + int(depth%4), ForkJoin: forkJoin,
		})
		checkRenamingInvariance(t, fmt.Sprintf("random-%d", seed), tr, rename)
	})
}
