// Package ccs implements the two pieces of predictive-analysis machinery
// that HB analysis does not need and that the paper identifies as the main
// performance costs:
//
//   - rule (a), detecting conflicting critical sections, via per-lock tables
//     Lr[m][x] / Lw[m][x] of critical-section release times keyed by
//     variable (LockTables); and
//   - rule (b), release–release ordering of critical sections whose earlier
//     acquire is ordered before the later release, via per-(lock, owner)
//     logs of acquire and release times with per-(observer, owner) cursors
//     (RuleB).
//
// Both are shared by the unoptimized (Algorithm 1) and FTO (Algorithm 2)
// engines; the SmartTrack engine replaces LockTables with per-variable CS
// lists but reuses RuleB with epoch-valued acquire queues.
//
// "Shared" is literal below the SmartTrack level: Substrate bundles a
// relation's synchronization state with its rule (a) and rule (b) state,
// the FT2, FTO and Unopt levels are Views over it, and a Group advances one
// substrate per event under every configured view of the relation. The
// comment on Substrate argues why that computes exactly what each cell
// would alone.
//
// All state grows on demand: neither structure needs the trace's id spaces
// up front, so both work under the streaming engine, where threads and
// locks are discovered as events arrive. RuleB in particular keeps one
// append-only log of critical sections per (lock, owner) and a consumed-
// prefix cursor per (observer, owner) pair — a thread forked mid-stream
// starts its cursors at zero and therefore observes the full history,
// exactly as the pre-sized batch construction did with per-pair FIFO
// queues (the paper's Acq_m,t(t') / Rel_m,t(t')).
//
// The logs are retained for the analysis's lifetime even after every
// current observer's cursor has passed an entry: a thread forked later may
// still be rule (b)-ordered after an old critical section (e.g. through a
// fork edge from its owner), so dropping consumed entries would weaken the
// relation and over-report races. Rule (b) memory therefore grows with the
// number of critical sections per lock — the same worst case as the old
// per-pair queues (which only freed entries once consumed), minus their
// (T-1)-way duplication of every entry.
//
// Representation. Both structures index by the engines' dense id spaces
// rather than hashing: rule (a) state is a paged slice of per-(lock, var)
// cells (aCell) so the per-access path is two array indexings with no map
// lookups or per-access heap traffic, and rule (b) cursors are dense
// [observer][owner] slices (thread ids are small). Pages materialize on
// first touch, so sparse id use under one lock does not pay for the full
// variable space.
package ccs

import (
	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
)

// relEntry pairs a critical section's release time with the release's trace
// index (for constraint-graph edges).
type relEntry struct {
	c   *vc.VC
	idx int32
}

// acqEntry is a logged acquire time: a full vector clock for DC at the
// Unopt/FTO levels (Algorithm 1 line 2), or an epoch when the owning
// analysis uses the epoch-queue optimization (SmartTrack, and WCP at every
// level — for WCP the ordering test a₁ ≺WCP r₂ is exactly the component
// test P_r₂(t') ≥ local(a₁) under left HB-composition, so only the epoch is
// meaningful).
type acqEntry struct {
	c  *vc.VC
	ep vc.Epoch
}

// csLog is the append-only critical-section history of one (lock, owner)
// pair: acq[i] and rel[i] are the acquire and release times of the owner's
// i-th critical section on the lock. Per-lock mutual exclusion guarantees
// that whenever another thread processes its own release of the lock,
// every logged acquire has a matching logged release (len(rel) ≥ any
// cursor that can be consumed), because the owner cannot still be inside
// a critical section another thread is releasing.
type csLog struct {
	acq []acqEntry
	rel []relEntry
}

// lockLogs holds the per-owner logs for one lock (indexed by owner thread
// id — dense, so a growable slice; nil means the owner has no critical
// sections on this lock) plus the per-pair consumed-prefix cursors,
// heads[observer][owner] — dense in both dimensions because thread ids are
// small and dense, replacing the old observer<<16|owner map (a hash lookup
// and potential insert per (observer, owner) pair per release).
type lockLogs struct {
	byOwner []*csLog
	heads   [][]int32
}

func (ll *lockLogs) owner(t trace.Tid) *csLog {
	analysis.EnsureLen(&ll.byOwner, int(t)+1)
	lg := ll.byOwner[t]
	if lg == nil {
		lg = &csLog{}
		ll.byOwner[t] = lg
	}
	return lg
}

// cursors returns observer t's consumed-prefix row, sized to cover all
// current owners.
func (ll *lockLogs) cursors(t trace.Tid) []int32 {
	analysis.EnsureLen(&ll.heads, int(t)+1)
	row := ll.heads[t]
	if len(row) < len(ll.byOwner) {
		analysis.EnsureLen(&row, len(ll.byOwner))
		ll.heads[t] = row
	}
	return row
}

// RuleB computes rule (b): at each release of m by t, any earlier critical
// section on m whose acquire is already ordered before the current release
// has its release time joined into the current thread's clock.
type RuleB struct {
	rel      analysis.Relation
	epochAcq bool
	locks    []*lockLogs
}

// NewRuleB builds rule (b) state from capacity hints. epochAcq selects
// epoch-valued acquire logs (SmartTrack's optimization); it is forced on
// for WCP.
func NewRuleB(rel analysis.Relation, spec analysis.Spec, epochAcq bool) *RuleB {
	if rel == analysis.WCP {
		epochAcq = true
	}
	return &RuleB{
		rel:      rel,
		epochAcq: epochAcq,
		locks:    make([]*lockLogs, spec.Locks),
	}
}

func (b *RuleB) lockState(m uint32) *lockLogs {
	analysis.EnsureLen(&b.locks, int(m)+1)
	q := b.locks[m]
	if q == nil {
		q = &lockLogs{}
		b.locks[m] = q
	}
	return q
}

// Acquire logs the acquire time of t's new critical section on m
// (Algorithm 1 line 2 / Algorithm 3 line 2). P is the relation clock of t
// at the acquire (after any HB lock joins, before the tick).
func (b *RuleB) Acquire(t trace.Tid, m uint32, p *vc.VC) {
	var ent acqEntry
	if b.epochAcq {
		ent.ep = p.Epoch(vc.Tid(t))
	} else {
		ent.c = p.Copy()
	}
	lg := b.lockState(m).owner(t)
	lg.acq = append(lg.acq, ent)
}

// Release performs rule (b) at t's release of m (Algorithm 1 lines 4–8):
// earlier critical sections whose acquires are ordered before the current
// clock contribute their release times, which are joined into t's relation
// clock; then the current release time is logged. For WCP the logged
// release time is the HB clock (left HB-composition); for DC it is the
// relation clock itself. idx is the trace index of the release event; hook
// (optional) receives rule (b) constraint edges.
func (b *RuleB) Release(t trace.Tid, m uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) {
	p := s.P[t]
	ll := b.lockState(m)
	heads := ll.cursors(t)
	// Owners iterate in ascending thread order — the same order as the old
	// pre-sized per-pair queues. Determinism matters: JoinP below grows p,
	// which the ordered test reads, so the iteration order is part of the
	// algorithm's observable behavior.
	for owner := 0; owner < len(ll.byOwner); owner++ {
		lg := ll.byOwner[owner]
		if lg == nil || owner == int(t) {
			continue
		}
		h := heads[owner]
		for int(h) < len(lg.acq) {
			front := lg.acq[h]
			var ordered bool
			if b.epochAcq {
				ordered = vc.EpochLeq(front.ep, p)
			} else {
				ordered = front.c.Leq(p)
			}
			if !ordered {
				break
			}
			re := lg.rel[h]
			h++
			s.JoinP(t, re.c) // rule (b): r1 ≺ r2
			if hook != nil && re.idx >= 0 {
				hook.Edge(re.idx, idx)
			}
		}
		heads[owner] = h
	}
	snap := p
	if b.rel == analysis.WCP {
		snap = s.H[t]
	}
	lg := ll.owner(t)
	lg.rel = append(lg.rel, relEntry{c: snap.Copy(), idx: idx})
}

// Weight estimates retained rule (b) metadata in 8-byte words.
func (b *RuleB) Weight() int {
	w := 0
	for _, ll := range b.locks {
		if ll == nil {
			continue
		}
		for _, row := range ll.heads {
			w += (len(row) + 1) / 2
		}
		for _, lg := range ll.byOwner {
			if lg == nil {
				continue
			}
			w += 2 * (len(lg.acq) + len(lg.rel))
			for _, a := range lg.acq {
				if a.c != nil {
					w += a.c.Weight()
				}
			}
			for _, r := range lg.rel {
				w += r.c.Weight()
			}
		}
	}
	return w
}

// pageBits/pageSize set the rule (a) paging granularity: 16 cells (512B)
// per page balances the footprint of a sparse lock touching few, scattered
// variables (the DaCapo-calibrated workloads' shape: ~140 live (lock, var)
// pairs spread over a ~600-variable space) against per-access indexing
// depth (two levels) and allocation count.
const (
	pageBits = 4
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// accessed marks which access sets of the ongoing critical section contain
// the variable.
const (
	inReadSet uint8 = 1 << iota
	inWriteSet
)

// aCell is the rule (a) state of one (lock, variable) pair: the joined
// release times of prior critical sections on the lock that read (lr) or
// wrote (lw) the variable, the trace indices of the latest contributing
// releases (for constraint-graph edges), and the ongoing critical
// section's membership marks. One cell replaces six map entries of the old
// representation; the whole per-access rule (a) path is now two slice
// indexings.
type aCell struct {
	lr, lw       *vc.VC
	lrIdx, lwIdx int32
	mark         uint8
}

// aPage is one materialized page of cells.
type aPage [pageSize]aCell

// lockTab is the per-lock rule (a) table: paged dense cells indexed by
// variable id, plus the list of variables touched by the ongoing critical
// section (the old rs/ws sets, now a slice with per-cell marks so
// membership tests are O(1) without hashing).
type lockTab struct {
	pages   []*aPage
	touched []uint32
}

// cell returns the (lock, var) cell, materializing its page on first touch.
func (tb *lockTab) cell(x uint32) *aCell {
	pi := int(x >> pageBits)
	if pi >= len(tb.pages) {
		analysis.EnsureLen(&tb.pages, pi+1)
	}
	p := tb.pages[pi]
	if p == nil {
		p = new(aPage)
		tb.pages[pi] = p
	}
	return &p[x&pageMask]
}

// LockTables is rule (a) state for the Unopt and FTO levels: per lock, the
// joined release times of critical sections that read (Lr) or wrote (Lw)
// each variable, plus the variables accessed by the lock's ongoing critical
// section.
type LockTables struct {
	locks []*lockTab
}

// NewLockTables builds empty rule (a) tables from capacity hints.
func NewLockTables(spec analysis.Spec) *LockTables {
	return &LockTables{locks: make([]*lockTab, spec.Locks)}
}

func (lt *LockTables) tab(m uint32) *lockTab {
	analysis.EnsureLen(&lt.locks, int(m)+1)
	tb := lt.locks[m]
	if tb == nil {
		tb = &lockTab{}
		lt.locks[m] = tb
	}
	return tb
}

// ReadJoin applies rule (a) for a read of x inside a critical section on m:
// joins the release times of prior critical sections on m that wrote x, and
// records x in the ongoing critical section's read set.
func (lt *LockTables) ReadJoin(t trace.Tid, m, x uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) {
	tb := lt.tab(m)
	cl := tb.cell(x)
	if cl.lw != nil {
		s.JoinP(t, cl.lw)
		if hook != nil {
			hook.Edge(cl.lwIdx, idx)
		}
	}
	if cl.mark == 0 {
		tb.touched = append(tb.touched, x)
	}
	cl.mark |= inReadSet
}

// WriteJoin applies rule (a) for a write of x inside a critical section on
// m: joins the release times of prior critical sections on m that read or
// wrote x, and records x in the ongoing critical section's write set. FTO's
// Rm and Lr also represent writes (Algorithm 2 line 19), which needs no
// read mark here: a later write joins Lr ⊔ Lw and a later read joins Lw, so
// folding a write into Lr as well as Lw changes no join.
func (lt *LockTables) WriteJoin(t trace.Tid, m, x uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) {
	tb := lt.tab(m)
	cl := tb.cell(x)
	if cl.lr != nil {
		s.JoinP(t, cl.lr)
		if hook != nil {
			hook.Edge(cl.lrIdx, idx)
		}
	}
	if cl.lw != nil {
		s.JoinP(t, cl.lw)
		if hook != nil {
			hook.Edge(cl.lwIdx, idx)
		}
	}
	if cl.mark == 0 {
		tb.touched = append(tb.touched, x)
	}
	cl.mark |= inWriteSet
}

// Release folds the ongoing critical section's access sets into Lr/Lw with
// the release time rt (Algorithm 1 lines 9–11): the relation clock for DC
// and WDC, the HB clock for WCP. Touched variables fold in access order
// (first touch first) — join is commutative and the sets are disjoint per
// variable, so the order is unobservable; it replaces the old map-range
// order.
func (lt *LockTables) Release(t trace.Tid, m uint32, rt *vc.VC, idx int32) {
	if int(m) >= len(lt.locks) {
		return
	}
	tb := lt.locks[m]
	if tb == nil {
		return
	}
	for _, x := range tb.touched {
		cl := tb.cell(x)
		if cl.mark&inReadSet != 0 {
			cl.lr = joinInto(cl.lr, rt)
			cl.lrIdx = idx
		}
		if cl.mark&inWriteSet != 0 {
			cl.lw = joinInto(cl.lw, rt)
			cl.lwIdx = idx
		}
		cl.mark = 0
	}
	tb.touched = tb.touched[:0]
}

func joinInto(dst, src *vc.VC) *vc.VC {
	if dst != nil {
		dst.Join(src)
		return dst
	}
	return src.Copy()
}

// aCellWords is the footprint of one dense cell in 8-byte words (two
// clock pointers, two int32 indices, the mark byte and padding).
const aCellWords = 4

// Weight estimates retained rule (a) metadata in 8-byte words, counting
// every materialized page at its full dense footprint — the memory the
// paged representation actually holds, including unused cells — plus the
// clocks the live cells reference.
func (lt *LockTables) Weight() int {
	w := 0
	for _, tb := range lt.locks {
		if tb == nil {
			continue
		}
		w += (len(tb.touched)+1)/2 + len(tb.pages)
		for _, p := range tb.pages {
			if p == nil {
				continue
			}
			w += pageSize * aCellWords
			for i := range p {
				cl := &p[i]
				if cl.lr != nil {
					w += cl.lr.Weight()
				}
				if cl.lw != nil {
					w += cl.lw.Weight()
				}
			}
		}
	}
	return w
}
