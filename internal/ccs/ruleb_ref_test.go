package ccs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
)

// refRuleB is rule (b) as RuleB kept it before its log went flat: one heap
// clock per logged acquire and release, two parallel slices per (lock,
// owner). It is the reference TestRuleBMatchesReference holds RuleB to.
type refRuleB struct {
	rel      analysis.Relation
	epochAcq bool
	locks    map[uint32]*refLogs
	stalls   int // scans that stopped at an acquire not yet ordered
}

type refLogs struct {
	byOwner [][]refCS            // byOwner[t][i]: t's i-th critical section
	heads   map[[2]trace.Tid]int // (observer, owner) → consumed prefix
}

type refCS struct {
	acqC *vc.VC
	acqE vc.Epoch
	rel  *vc.VC
	idx  int32
}

func (b *refRuleB) lock(m uint32, t trace.Tid) *refLogs {
	ll := b.locks[m]
	if ll == nil {
		ll = &refLogs{heads: map[[2]trace.Tid]int{}}
		b.locks[m] = ll
	}
	analysis.EnsureLen(&ll.byOwner, int(t)+1)
	return ll
}

func (b *refRuleB) Acquire(t trace.Tid, m uint32, p *vc.VC) {
	ll := b.lock(m, t)
	cs := refCS{acqE: p.Epoch(vc.Tid(t))}
	if !b.epochAcq {
		cs.acqC = p.Copy()
	}
	ll.byOwner[t] = append(ll.byOwner[t], cs)
}

func (b *refRuleB) Release(t trace.Tid, m uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) vc.VC {
	p := s.P[t]
	ll := b.lock(m, t)
	for owner, lg := range ll.byOwner {
		if owner == int(t) {
			continue
		}
		key := [2]trace.Tid{t, trace.Tid(owner)}
		h := ll.heads[key]
		for ; h < len(lg); h++ {
			if b.epochAcq && !vc.EpochLeq(lg[h].acqE, p) || !b.epochAcq && !lg[h].acqC.Leq(p) {
				b.stalls++
				break
			}
			s.JoinP(t, lg[h].rel)
			if hook != nil {
				hook.Edge(lg[h].idx, idx)
			}
		}
		ll.heads[key] = h
	}
	snap := p
	if b.rel == analysis.WCP {
		snap = s.H[t]
	}
	own := ll.byOwner[t]
	own[len(own)-1].rel, own[len(own)-1].idx = snap.Copy(), idx
	return *own[len(own)-1].rel
}

// syncOnly is a random well-formed stream of lock and volatile events whose
// threads appear a few at a time: thread k's first event comes after about
// k*stride others, so clocks logged early are narrower than later ones.
// Locks are released in any order, and volatiles order threads just often
// enough that rule (b)'s test goes both ways.
func syncOnly(seed int64, threads, locks, events, stride int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	owner := make([]int, locks)
	for m := range owner {
		owner[m] = -1
	}
	var evs []trace.Event
	for len(evs) < events {
		t := rng.Intn(min(threads, 2+len(evs)/stride))
		m := rng.Intn(locks)
		switch k := rng.Intn(10); {
		case k < 9 && owner[m] == -1:
			owner[m] = t
			evs = append(evs, trace.Event{T: trace.Tid(t), Op: trace.OpAcquire, Targ: uint32(m)})
		case k < 9 && owner[m] == t:
			owner[m] = -1
			evs = append(evs, trace.Event{T: trace.Tid(t), Op: trace.OpRelease, Targ: uint32(m)})
		case k == 9:
			op := trace.OpVolatileWrite
			if rng.Intn(2) == 0 {
				op = trace.OpVolatileRead
			}
			evs = append(evs, trace.Event{T: trace.Tid(t), Op: op, Targ: uint32(rng.Intn(4))})
		}
	}
	return evs
}

type edgeList [][2]int32

func (l *edgeList) Edge(src, dst int32) { *l = append(*l, [2]int32{src, dst}) }

func equalClocks(a, b *vc.VC) bool { return a.Leq(b) && b.Leq(a) }

// TestRuleBMatchesReference drives RuleB and the pointer-per-clock reference
// through the same streams, each on its own sync state, and holds every
// thread's P after every release, every rule (b) edge, and the logged release
// time Release returns (the clock SmartTrack's sections share — H for WCP)
// to the reference's: in epoch and vector acquire modes, with threads that
// first appear mid-stream, over more clocks than one arena chunk holds.
func TestRuleBMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		rel      analysis.Relation
		epochAcq bool
	}{
		{analysis.DC, false}, // FTO-DC, Unopt-DC
		{analysis.DC, true},  // ST-DC
		{analysis.WCP, true}, // every WCP cell
	} {
		for seed := int64(1); seed <= 3; seed++ {
			id := fmt.Sprintf("%v epochAcq=%v seed %d", tc.rel, tc.epochAcq, seed)
			evs := syncOnly(seed, 12, 5, 12000, 400)
			var spec analysis.Spec // no hints: everything grows as the stream reveals it
			got, want := NewRuleB(tc.rel, spec, tc.epochAcq), &refRuleB{rel: tc.rel, epochAcq: tc.epochAcq, locks: map[uint32]*refLogs{}}
			sg, sw := analysis.NewSyncState(tc.rel, spec), analysis.NewSyncState(tc.rel, spec)
			var eg, ew edgeList
			releases, joined := 0, 0
			for i, e := range evs {
				idx := int32(i)
				sg.Ensure(e.T)
				sw.Ensure(e.T)
				switch e.Op {
				case trace.OpAcquire:
					sg.PreAcquire(e.T, e.Targ)
					sw.PreAcquire(e.T, e.Targ)
					got.Acquire(e.T, e.Targ, sg.P[e.T])
					want.Acquire(e.T, e.Targ, sw.P[e.T])
					sg.PostAcquire(e.T, e.Targ)
					sw.PostAcquire(e.T, e.Targ)
				case trace.OpRelease:
					releases++
					lg, lw := got.Release(e.T, e.Targ, sg, idx, &eg), want.Release(e.T, e.Targ, sw, idx, &ew)
					if lg.Len() != lw.Len() || !equalClocks(&lg, &lw) {
						t.Fatalf("%s: release %d logged %v, reference %v", id, i, &lg, &lw)
					}
					if len(eg) != len(ew) || len(eg) > 0 && eg[len(eg)-1] != ew[len(ew)-1] {
						t.Fatalf("%s: release %d drew %d edges, reference %d", id, i, len(eg), len(ew))
					}
					joined = len(ew)
					for u := range sw.P {
						if !equalClocks(sg.P[u], sw.P[u]) {
							t.Fatalf("%s: after release %d P[%d] = %v, reference %v", id, i, u, sg.P[u], sw.P[u])
						}
					}
					sg.PostRelease(e.T, e.Targ)
					sw.PostRelease(e.T, e.Targ)
				default:
					sg.HandleOther(e, idx)
					sw.HandleOther(e, idx)
				}
			}
			for i := range ew {
				if eg[i] != ew[i] {
					t.Fatalf("%s: edge %d is %v, reference %v", id, i, eg[i], ew[i])
				}
			}
			// The stream must have exercised what the test is about.
			if joined < releases/4 || want.stalls < releases/4 {
				t.Errorf("%s: %d rule (b) joins and %d stalled scans over %d releases: the ordered test hardly went both ways", id, joined, want.stalls, releases)
			}
			if sg.Threads() != 12 {
				t.Errorf("%s: %d threads appeared, want 12", id, sg.Threads())
			}
			if words := got.clocks.Weight(); words < 2*8192 {
				t.Errorf("%s: the arena holds %d words: the log never left its first chunk", id, words)
			}
		}
	}
}

// BenchmarkRuleBRelease prices one uncontended acquire/release pair of ST-DC's
// rule (b) on a ten-thread clock: an entry, an arena copy of the release
// time, and a scan of nine other owners' cursors.
func BenchmarkRuleBRelease(b *testing.B) {
	spec := analysis.Spec{Threads: 10, Locks: 1}
	s := analysis.NewSyncState(analysis.DC, spec)
	rb := NewRuleB(analysis.DC, spec, true)
	for t := trace.Tid(0); t < 10; t++ { // every thread owns history on the lock
		rb.Acquire(t, 0, s.P[t])
		s.PostAcquire(t, 0)
		rb.Release(t, 0, s, int32(t), nil)
		s.PostRelease(t, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := trace.Tid(i % 10)
		rb.Acquire(t, 0, s.P[t])
		s.PostAcquire(t, 0)
		rb.Release(t, 0, s, int32(i), nil)
		s.PostRelease(t, 0)
	}
}
