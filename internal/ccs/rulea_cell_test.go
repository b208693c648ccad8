package ccs

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
	"repro/internal/workload"
)

// heldTime is a rule (a) side as a release left it holding that release's
// time alone, beside a copy of the release time taken at the release.
type heldTime struct {
	side aSide
	by   trace.Tid // the releasing thread
	want *vc.VC
}

// checkCellTimes runs relation rel's substrate over tr and holds every
// one-release side of a rule (a) cell — a name in the rule (b) log for WCP
// and DC, a view of the releasing thread's snapshot for WDC — to a copy of
// the release time rule (a) folded: the releasing thread's P, or H for
// WCP, as the release saw it. Each side is read through LockTables.at right
// after its release, and a copy of it again at the end of the trace, so a
// snapshot or logged clock written after a side viewed it fails too.
func checkCellTimes(t testing.TB, tr *trace.Trace, rel analysis.Relation) {
	t.Helper()
	sub := NewSubstrate(rel, false)
	lt := sub.lt
	check := func(h heldTime, when string) {
		got := lt.at(&h.side, h.by, false)
		for u := range vc.Tid(max(h.want.Len(), got.Len()) + 1) {
			if got.Get(u) != h.want.Get(u) {
				t.Fatalf("%v %s: the side thread %d's release at index %d left reads %v, released %v", rel, when, h.by, h.side.idx, got.Copy(), h.want)
			}
		}
	}
	var held []heldTime
	var touched []uint32
	for _, e := range tr.Events {
		idx := sub.Begin(e.T)
		if e.Op.IsAccess() {
			sub.RuleA(e.T, e.Targ, e.Op == trace.OpWrite, idx, false)
			continue
		}
		touched = touched[:0]
		if e.Op == trace.OpRelease {
			touched = append(touched, lt.tab(e.Targ).touched...)
		}
		sub.Sync(e, idx)
		if len(touched) == 0 {
			continue
		}
		want, start := untick(sub.releaseTime(e.T), e.T), len(held)
		for _, x := range touched {
			cl := lt.tab(e.Targ).cells.At(x)
			if cl.lwBy == e.T && cl.lw.idx == idx {
				held = append(held, heldTime{cl.lw, e.T, want})
			}
			if cl.lrBy == e.T && cl.lr.idx == idx && cl.mark&lrJoined == 0 {
				held = append(held, heldTime{cl.lr, e.T, want})
			}
		}
		for _, h := range held[start:] {
			check(h, "at the release")
		}
	}
	for _, h := range held {
		check(h, "at the end of the trace")
	}
}

// FuzzRuleACellTimes holds every rule (a) side that stands for one release
// to the release time it was folded from, over the workload.RandomConfig
// tuple FuzzReleaseSnapshots draws from, for the WCP and DC substrates
// (whose sides name their rule (b) log's clocks) and the WDC one (whose
// sides view per-thread snapshots and hold the owner's component).
func FuzzRuleACellTimes(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint16(2000), uint8(3), true)
	f.Add(int64(7), uint8(8), uint8(2), uint8(1), uint8(0), uint16(3000), uint8(1), false)
	f.Add(int64(42), uint8(3), uint8(12), uint8(5), uint8(3), uint16(1500), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, threads, vars, locks, volatiles uint8, events uint16, depth uint8, forkJoin bool) {
		tr := workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 1 + int(threads%10), Vars: 1 + int(vars%16), Locks: 1 + int(locks%6),
			Volatiles: int(volatiles % 4), Events: int(events % 4000), MaxDepth: 1 + int(depth%4), ForkJoin: forkJoin,
		})
		for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
			checkCellTimes(t, tr, rel)
		}
	})
}
