package ccs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
	"repro/internal/workload"
)

// refRuleB is rule (b) as RuleB kept it before its log went flat: one heap
// clock per logged acquire and release, two parallel slices per (lock,
// owner), every pending entry read. It is the reference
// TestRuleBMatchesReference holds RuleB to. Its edges follow the spec: per
// owner, one from the last entry a release consumed; everyEntry draws the
// paper's one edge per consumed entry instead, the graph
// TestRuleBEdgesKeepReachability holds RuleB's to.
type refRuleB struct {
	rel        analysis.Relation
	epochAcq   bool
	everyEntry bool
	locks      map[uint32]*refLogs
	stalls     int // scans that stopped at an acquire not yet ordered
}

func newRefRuleB(rel analysis.Relation, epochAcq, everyEntry bool) *refRuleB {
	return &refRuleB{rel: rel, epochAcq: epochAcq, everyEntry: everyEntry, locks: map[uint32]*refLogs{}}
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
	trace.EnsureLen(&ll.byOwner, int(t)+1)
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
		first := ll.heads[key]
		h := first
		for ; h < len(lg); h++ {
			if b.epochAcq && !vc.EpochLeq(lg[h].acqE, p) || !b.epochAcq && !lg[h].acqC.Leq(p) {
				b.stalls++
				break
			}
			s.JoinP(t, lg[h].rel)
			if hook != nil && b.everyEntry {
				hook.Edge(lg[h].idx, idx, trace.Tid(owner), t)
			}
		}
		ll.heads[key] = h
		if hook != nil && !b.everyEntry && h > first {
			hook.Edge(lg[h-1].idx, idx, trace.Tid(owner), t)
		}
	}
	snap := p
	if b.rel == analysis.WCP {
		snap = s.H[t]
	}
	own := ll.byOwner[t]
	own[len(own)-1].rel, own[len(own)-1].idx = snap.Copy(), idx
	return *own[len(own)-1].rel
}

// refLockTables is rule (a) as LockTables kept it before its cells named
// logged clocks: every cell owns its Lr and Lw, every release joins its time
// into them, and every access joins every release time it conflicts with.
// It is the reference TestSubstrateMatchesReference holds LockTables to.
type refLockTables struct {
	cells   map[[2]uint32]*refCell // (lock, var)
	touched map[uint32][]uint32    // lock → variables its ongoing section accessed
	joins   int                    // release times joined at accesses
}

type refCell struct {
	lr, lw       *vc.VC
	lrIdx, lwIdx int32     // the latest release folded into each
	lrBy, lwBy   trace.Tid // its thread
	mark         uint8
}

func newRefLockTables() *refLockTables {
	return &refLockTables{cells: map[[2]uint32]*refCell{}, touched: map[uint32][]uint32{}}
}

func (lt *refLockTables) cell(m, x uint32) *refCell {
	cl := lt.cells[[2]uint32{m, x}]
	if cl == nil {
		cl = &refCell{}
		lt.cells[[2]uint32{m, x}] = cl
	}
	return cl
}

func (lt *refLockTables) join(t trace.Tid, s *analysis.SyncState, c *vc.VC, src int32, by trace.Tid, dst int32, hook analysis.Hook) {
	if c == nil {
		return
	}
	lt.joins++
	s.JoinP(t, c)
	if hook != nil {
		hook.Edge(src, dst, by, t)
	}
}

func (lt *refLockTables) access(t trace.Tid, m, x uint32, s *analysis.SyncState, idx int32, hook analysis.Hook, write bool) {
	cl := lt.cell(m, x)
	if write {
		lt.join(t, s, cl.lr, cl.lrIdx, cl.lrBy, idx, hook)
	}
	lt.join(t, s, cl.lw, cl.lwIdx, cl.lwBy, idx, hook)
	if cl.mark == 0 {
		lt.touched[m] = append(lt.touched[m], x)
	}
	if write {
		cl.mark |= inWriteSet
	} else {
		cl.mark |= inReadSet
	}
}

func (lt *refLockTables) Release(t trace.Tid, m uint32, rt *vc.VC, idx int32) {
	for _, x := range lt.touched[m] {
		cl := lt.cell(m, x)
		if cl.mark&inReadSet != 0 {
			cl.lr = refJoinInto(cl.lr, rt)
			cl.lrIdx, cl.lrBy = idx, t
		}
		if cl.mark&inWriteSet != 0 {
			cl.lw = refJoinInto(cl.lw, rt)
			cl.lwIdx, cl.lwBy = idx, t
		}
		cl.mark = 0
	}
	lt.touched[m] = lt.touched[m][:0]
}

func refJoinInto(dst, src *vc.VC) *vc.VC {
	if dst != nil {
		dst.Join(src)
		return dst
	}
	return src.Copy()
}

// RefSubstrate is a Substrate whose rule (a) and rule (b) are the
// references: its sync state, graph and Begin are a Substrate's own, and
// Handle runs refLockTables and refRuleB where Group.Handle runs LockTables
// and RuleB. Views are built over Sub.
type RefSubstrate struct {
	Sub *Substrate
	lt  *refLockTables
	rb  *refRuleB
}

// NewRefSubstrate builds the reference substrate of relation rel.
func NewRefSubstrate(rel analysis.Relation, buildGraph bool) *RefSubstrate {
	sub := NewSubstrate(rel, buildGraph)
	r := &RefSubstrate{Sub: sub}
	if sub.lt != nil {
		r.lt = newRefLockTables()
	}
	if sub.rb != nil {
		r.rb = newRefRuleB(rel, sub.rb.epochAcq, false)
	}
	sub.lt, sub.rb = nil, nil
	return r
}

// RuleAJoins is the number of release times the reference rule (a) joined.
func (r *RefSubstrate) RuleAJoins() int { return r.lt.joins }

// Handle is Group.Handle over the reference rule (a) and rule (b): views
// are asked Stale once each, and rule (a) draws edges only when the view at
// index edged is stale.
func (r *RefSubstrate) Handle(e trace.Event, views []View, edged int) {
	b, t := r.Sub, e.T
	idx := b.Begin(t)
	switch e.Op {
	case trace.OpAcquire:
		b.PreAcquire(t, e.Targ)
		if r.rb != nil {
			r.rb.Acquire(t, e.Targ, b.P[t])
		}
		b.PostAcquire(t, e.Targ)
		return
	case trace.OpRelease:
		if r.rb != nil {
			r.rb.Release(t, e.Targ, &b.SyncState, idx, b.Hook())
		}
		if r.lt != nil {
			r.lt.Release(t, e.Targ, b.releaseTime(t), idx)
		}
		b.PostRelease(t, e.Targ)
		return
	case trace.OpRead, trace.OpWrite:
	default:
		b.HandleOther(e, idx)
		return
	}
	write := e.Op == trace.OpWrite
	var stale uint32
	for i, v := range views {
		if v.Stale(t, e.Targ, write) {
			stale |= 1 << i
		}
	}
	if stale == 0 {
		return
	}
	if r.lt != nil {
		hook := b.Hook()
		if stale&(1<<edged) == 0 {
			hook = nil
		}
		for _, m := range b.Held(t) {
			r.lt.access(t, m, e.Targ, &b.SyncState, idx, hook, write)
		}
	}
	for i, v := range views {
		switch {
		case stale&(1<<i) == 0:
		case write:
			v.Write(t, e.Targ, e.Loc, idx)
		default:
			v.Read(t, e.Targ, e.Loc, idx)
		}
	}
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

// edgeList is a Hook that records every edge it is handed, unfiltered: src,
// dst and their threads.
type edgeList [][4]int32

func (l *edgeList) Edge(src, dst int32, from, to trace.Tid) {
	*l = append(*l, [4]int32{src, dst, int32(from), int32(to)})
}

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
			got, want := NewRuleB(tc.rel, tc.epochAcq), newRefRuleB(tc.rel, tc.epochAcq, false)
			sg, sw := analysis.NewSyncState(tc.rel), analysis.NewSyncState(tc.rel)
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
					rg, lw := got.At(got.Release(e.T, e.Targ, sg, idx, &eg), e.T), want.Release(e.T, e.Targ, sw, idx, &ew)
					if lg := rg.Copy(); lg.Len() != lw.Len() || !equalClocks(lg, &lw) {
						t.Fatalf("%s: release %d logged %v, reference %v", id, i, lg, &lw)
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

// BenchmarkRuleBRelease prices one uncontended acquire/release pair of
// rule (b) on a ten-thread clock: an entry, the logged release time, and a
// scan of nine other owners' cursors; with epoch acquires (ST-DC's log) and
// with vector acquires (the DC computation's, which logs the acquire time
// too and tests it against the releasing clock). No thread learns of
// another, so after the first round every logged clock is a record: B/op is
// the arena's share of a pair, one or two 12-byte records, and its 12-byte
// entry, 25 and 37 bytes (28 and 44 with 8-byte clock components and
// 16-byte records, 95 and 111 when entries were 16 bytes in append-doubled
// slices too).
func BenchmarkRuleBRelease(b *testing.B) {
	for _, epochAcq := range []bool{true, false} {
		b.Run(fmt.Sprintf("epochAcq=%v", epochAcq), func(b *testing.B) {
			s := analysis.NewSyncState(analysis.DC)
			s.Ensure(9)
			rb := NewRuleB(analysis.DC, epochAcq)
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
		})
	}
}

// everyAccess is a view that is stale on every access and checks nothing,
// so rule (a) runs at every access under a lock.
type everyAccess struct{}

func (everyAccess) Stale(trace.Tid, uint32, bool) bool        { return true }
func (everyAccess) Read(trace.Tid, uint32, trace.Loc, int32)  {}
func (everyAccess) Write(trace.Tid, uint32, trace.Loc, int32) {}

// BenchmarkLockTables prices rule (a) — ReadJoin and WriteJoin at every
// access under every held lock, Release at every release — with the rule (b)
// and sync processing it rides on, over the h2 generator's lock and variable
// mix (190 k events), for each relation with rule (a). It reports the release
// times joined per rule (a) access and the number the join-everything
// reference joins.
func BenchmarkLockTables(b *testing.B) {
	p, _ := workload.ProgramByName("h2")
	tr := p.Generate(20000, 1)
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		b.Run(rel.String(), func(b *testing.B) {
			ref := NewRefSubstrate(rel, false)
			for _, e := range tr.Events {
				ref.Handle(e, []View{everyAccess{}}, 0)
			}
			var joins, accesses int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub := NewSubstrate(rel, false)
				joins, accesses = 0, 0
				for _, e := range tr.Events {
					t, idx := e.T, sub.Begin(e.T)
					switch e.Op {
					case trace.OpRead, trace.OpWrite:
						for _, m := range sub.Held(t) {
							accesses++
							if e.Op == trace.OpWrite {
								joins += sub.lt.WriteJoin(t, m, e.Targ, &sub.SyncState, idx, nil)
							} else {
								joins += sub.lt.ReadJoin(t, m, e.Targ, &sub.SyncState, idx, nil)
							}
						}
					default:
						sub.Sync(e, idx)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/event")
			b.ReportMetric(float64(joins)/float64(accesses), "joins/access")
			b.ReportMetric(float64(ref.RuleAJoins())/float64(accesses), "ref-joins/access")
		})
	}
}
