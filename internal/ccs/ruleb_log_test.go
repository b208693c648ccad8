package ccs

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
	"repro/internal/workload"
)

// loggedTime names one clock a rule (b) log holds — the release time of
// owner's i-th critical section on m, or its acquire time — beside a copy
// of the clock taken when it was logged.
type loggedTime struct {
	m     uint32
	owner trace.Tid
	i     int
	acq   bool
	want  *vc.VC
}

// untick copies c as it was before the event's tick of t's component.
func untick(c *vc.VC, t trace.Tid) *vc.VC {
	w := c.Copy()
	w.Set(vc.Tid(t), c.Get(vc.Tid(t))-1)
	return w
}

// checkLoggedTimes runs relation rel's substrate over tr, its rule (b) log
// replaced by one with epoch acquires when epochAcq is set (SmartTrack's
// shape), and holds every clock the log holds, whole or record, to a copy of
// the clock it logged: the releasing thread's P, or H for WCP, as Release
// logged it, and for vector acquires P at the acquire. Each release's clock
// and its section's acquire clock are read through the view right after the
// release, and every logged clock again at the end of the trace, so a base
// written after a record was put over it fails too.
func checkLoggedTimes(t testing.TB, tr *trace.Trace, rel analysis.Relation, epochAcq bool) {
	t.Helper()
	sub := NewSubstrate(rel, false)
	if epochAcq {
		sub.rb = NewRuleB(rel, true)
		sub.lt.log = sub.rb
	}
	check := func(l loggedTime, when string) {
		ent := *sub.rb.entry(&sub.rb.locks.At(l.m).byOwner[l.owner], int32(l.i))
		r := ent.rel
		if l.acq {
			r = vc.Ref(ent.acq)
		}
		got := sub.rb.At(r, l.owner)
		for u := range vc.Tid(max(l.want.Len(), got.Len()) + 1) {
			if got.Get(u) != l.want.Get(u) {
				t.Fatalf("%v (epochAcq %v) %s: thread %d's clock %d on lock %d (acquire %v) reads %v, logged %v", rel, epochAcq, when, l.owner, l.i, l.m, l.acq, got.Copy(), l.want)
			}
		}
		if !got.Leq(l.want) {
			t.Fatalf("%v %s: a logged clock is not ⊑ the clock it reads as", rel, when)
		}
	}
	var logged []loggedTime
	for _, e := range tr.Events {
		idx := sub.Begin(e.T)
		if e.Op.IsAccess() {
			sub.RuleA(e.T, e.Targ, e.Op == trace.OpWrite, idx, false)
			continue
		}
		sub.Sync(e, idx)
		switch e.Op {
		case trace.OpAcquire:
			if !sub.rb.epochAcq {
				i := int(sub.rb.locks.At(e.Targ).byOwner[e.T].n) - 1
				logged = append(logged, loggedTime{m: e.Targ, owner: e.T, i: i, acq: true, want: untick(sub.P[e.T], e.T)})
			}
		case trace.OpRelease:
			clock := sub.P[e.T]
			if rel == analysis.WCP {
				clock = sub.H[e.T]
			}
			l := loggedTime{m: e.Targ, owner: e.T, i: int(sub.rb.locks.At(e.Targ).byOwner[e.T].n) - 1, want: untick(clock, e.T)}
			check(l, "at the release")
			for _, a := range logged { // the section's acquire, if logged
				if a.acq && a.m == l.m && a.owner == l.owner && a.i == l.i {
					check(a, "at the release")
				}
			}
			logged = append(logged, l)
		}
	}
	for _, l := range logged {
		check(l, "at the end of the trace")
	}
}

// FuzzRuleBLoggedTimes holds every clock rule (b) logs — acquires and
// releases, records and whole clocks — to the clock it was logged from,
// over the workload.RandomConfig tuple FuzzReleaseSnapshots draws from: the
// WCP and DC substrates' logs (DC's with vector acquires) and the epoch
// acquire log of ST-DC's shape.
func FuzzRuleBLoggedTimes(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint16(2000), uint8(3), true)
	f.Add(int64(7), uint8(8), uint8(2), uint8(1), uint8(0), uint16(3000), uint8(1), false)
	f.Add(int64(42), uint8(3), uint8(12), uint8(5), uint8(3), uint16(1500), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, threads, vars, locks, volatiles uint8, events uint16, depth uint8, forkJoin bool) {
		tr := workload.Random(workload.RandomConfig{
			Seed: seed, Threads: 1 + int(threads%10), Vars: 1 + int(vars%16), Locks: 1 + int(locks%6),
			Volatiles: int(volatiles % 4), Events: int(events % 4000), MaxDepth: 1 + int(depth%4), ForkJoin: forkJoin,
		})
		checkLoggedTimes(t, tr, analysis.WCP, true)
		checkLoggedTimes(t, tr, analysis.DC, false)
		checkLoggedTimes(t, tr, analysis.DC, true)
	})
}

// TestRuleBBytesPerLoggedClock holds rule (b)'s arenas to what they spend
// per logged clock on h2/20000, chunk slack included: the WCP and DC
// substrates' logs (the WCP and DC computations of a fan-out; DC's logs
// vector acquires too) and a DC log with epoch acquires (ST-DC's shape). A
// ten-thread clock stored whole is 44 bytes and a record 12: with every
// clock whole the three read 45.5 B each, with records 31.8, 18.2 and 22.7,
// 22.7 together (38.6 with 8-byte components). The budget is that reading
// plus 10 %.
func TestRuleBBytesPerLoggedClock(t *testing.T) {
	const budget = 25.0 // bytes per logged clock
	p, _ := workload.ProgramByName("h2")
	tr := p.Generate(20000, 1)
	var words, clocks int
	for _, cfg := range []struct {
		rel      analysis.Relation
		epochAcq bool
	}{{analysis.WCP, true}, {analysis.DC, false}, {analysis.DC, true}} {
		sub := NewSubstrate(cfg.rel, false)
		if cfg.epochAcq {
			sub.rb = NewRuleB(cfg.rel, true)
			sub.lt.log = sub.rb
		}
		for _, e := range tr.Events {
			idx := sub.Begin(e.T)
			if e.Op.IsAccess() {
				sub.RuleA(e.T, e.Targ, e.Op == trace.OpWrite, idx, false)
			} else {
				sub.Sync(e, idx)
			}
		}
		n := 0
		for m := range uint32(trace.ExtentOf(tr.Events).Locks) {
			ll := sub.rb.locks.At(m)
			for o := range ll.byOwner {
				for i := range ll.byOwner[o].n {
					ent := sub.rb.entry(&ll.byOwner[o], i)
					if ent.rel != 0 {
						n++
					}
					if !sub.rb.epochAcq {
						n++
					}
				}
			}
		}
		w := sub.rb.clocks.Weight()
		t.Logf("%v (epoch acquires %v): %d clocks logged, %.1f B each", cfg.rel, cfg.epochAcq, n, 8*float64(w)/float64(n))
		words += w
		clocks += n
	}
	if got := 8 * float64(words) / float64(clocks); got > budget {
		t.Errorf("rule (b)'s arenas spend %.1f bytes per logged clock over %d clocks, budget %.1f", got, clocks, budget)
	}
}
