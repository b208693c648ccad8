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
// Log retention. A log entry (csEntry) is one critical section: its acquire
// time, the name of its release time, the release's trace index. Entries and
// the clocks they name are kept for the analysis's lifetime, even after
// every current observer's cursor has passed them, so rule (b) memory grows
// with the number of critical sections — the same worst case as the paper's
// per-pair queues, which only freed an entry once every thread had consumed
// it, minus their (T-1)-way duplication. Trimming a log below the minimum
// cursor of its observers is not done because the observer set is not
// knowable from a stream: trace.Check treats a thread that is never forked
// as existing from the start of the trace, so a thread id first seen at
// event one million is a legal observer whose cursors start at zero, and it
// can be rule (b)-ordered after any old critical section (a volatile read
// suffices to put the old acquire before its release). Dropping what the
// threads seen so far have consumed would weaken the relation for that
// thread and over-report races. A trim needs either declared thread counts
// or a per-log summary clock for late arrivals; neither exists yet.
//
// Representation. Both structures index by the engines' dense id spaces
// rather than hashing: rule (a) state is a paged slice of per-(lock, var)
// cells (aCell) so the per-access path is two array indexings with no map
// lookups or per-access heap traffic, and rule (b) cursors are dense
// [observer][owner] slices (thread ids are small). Pages materialize on
// first touch, so sparse id use under one lock does not pay for the full
// variable space. Rule (b)'s history is flat: a 16-byte pointer-free entry
// per critical section in one slice per (lock, owner), and every logged
// clock in one vc.Arena per RuleB. The arena can be write-once because a
// logged time is never updated — the log only ever appends, and a cursor
// only ever reads what is behind it — which is also what lets SmartTrack's
// sections share the logged release clock instead of copying it (see
// Release), and it keeps a history of a million clocks out of the
// collector's mark phase.
package ccs

import (
	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
)

// csEntry is one critical section in its (lock, owner) log: 16 bytes, no
// pointers. acq is the acquire time — an epoch when the owning analysis uses
// the epoch-queue optimization (SmartTrack, and WCP at every level: for WCP
// the ordering test a₁ ≺WCP r₂ is exactly the component test
// P_r₂(t') ≥ local(a₁) under left HB-composition, so only the epoch is
// meaningful), otherwise the arena Ref of a full vector clock (DC at the
// Unopt/FTO levels, Algorithm 1 line 2). rel is the arena Ref of the release
// time, zero while the section is open, and idx the release's trace index
// (for constraint-graph edges).
type csEntry struct {
	acq uint64
	rel vc.Ref
	idx int32
}

// lockLogs holds the per-owner logs for one lock — byOwner[t][i] is t's i-th
// critical section on the lock; owner thread ids are dense, so a growable
// slice, nil for an owner with no critical sections here — plus the per-pair
// consumed-prefix cursors, heads[observer][owner], dense in both dimensions.
//
// Per-lock mutual exclusion guarantees that whenever a thread processes its
// own release of the lock, every entry of every other owner has its release
// filled in: the owner cannot still be inside a critical section on a lock
// another thread is releasing.
type lockLogs struct {
	byOwner [][]csEntry
	heads   [][]int32
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
	clocks   vc.Arena // every logged acquire and release clock
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
	var ent csEntry
	if b.epochAcq {
		ent.acq = uint64(p.Epoch(vc.Tid(t)))
	} else {
		ent.acq = uint64(b.clocks.Put(p))
	}
	ll := b.lockState(m)
	analysis.EnsureLen(&ll.byOwner, int(t)+1)
	ll.byOwner[t] = append(ll.byOwner[t], ent)
}

// Release performs rule (b) at t's release of m (Algorithm 1 lines 4–8):
// earlier critical sections whose acquires are ordered before the current
// clock contribute their release times, which are joined into t's relation
// clock; then the current release time is logged, and returned as a
// read-only view of the logged copy. For WCP the logged release time is the
// HB clock (left HB-composition); for DC it is the relation clock itself.
// idx is the trace index of the release event; hook (optional) receives
// rule (b) constraint edges.
func (b *RuleB) Release(t trace.Tid, m uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) vc.VC {
	p := s.P[t]
	ll := b.lockState(m)
	heads := ll.cursors(t)
	// Owners iterate in ascending thread order — the same order as the old
	// pre-sized per-pair queues. Determinism matters: JoinP below grows p,
	// which the ordered test reads, so the iteration order is part of the
	// algorithm's observable behavior.
	for owner, lg := range ll.byOwner {
		if owner == int(t) {
			continue
		}
		h := heads[owner]
		for int(h) < len(lg) {
			front := lg[h]
			var ordered bool
			if b.epochAcq {
				ordered = vc.EpochLeq(vc.Epoch(front.acq), p)
			} else {
				acq := b.clocks.At(vc.Ref(front.acq))
				ordered = acq.Leq(p)
			}
			if !ordered {
				break
			}
			h++
			rel := b.clocks.At(front.rel)
			s.JoinP(t, &rel) // rule (b): r1 ≺ r2
			if hook != nil {
				hook.Edge(front.idx, idx)
			}
		}
		heads[owner] = h
	}
	snap := p
	if b.rel == analysis.WCP {
		snap = s.H[t]
	}
	own := ll.byOwner[t]
	cs := &own[len(own)-1] // the section t's acquire of m opened
	cs.rel, cs.idx = b.clocks.Put(snap), idx
	return b.clocks.At(cs.rel)
}

// Weight estimates retained rule (b) metadata in 8-byte words: the cursor
// rows and entry slices at their capacity, and the arena, which holds every
// clock an entry names.
func (b *RuleB) Weight() int {
	w := b.clocks.Weight()
	for _, ll := range b.locks {
		if ll == nil {
			continue
		}
		for _, row := range ll.heads {
			w += (cap(row) + 1) / 2
		}
		for _, lg := range ll.byOwner {
			w += 2 * cap(lg)
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
