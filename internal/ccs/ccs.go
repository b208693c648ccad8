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
// only ever reads what is behind it — which is what lets SmartTrack's
// sections and rule (a)'s cells name the logged release clock instead of
// copying it, and it keeps a history of a million clocks out of the
// collector's mark phase.
//
// Known releases are not joined again. The paper's algorithms join a
// release time into the thread's clock at every rule (a) conflict and every
// rule (b) consumption, and at every release join the release time into
// each touched cell; on the sync-dense traces nearly all of those joins are
// no-ops. Three facts let the substrates skip them exactly:
//
//  1. A cell's Lw is one release's clock, and so is Lr after a critical
//     section that read and wrote the variable (see LockTables.Release).
//     Such a cell names the clock rule (b) logged for
//     that release — RuleB logs exactly the release time rule (a) folds —
//     or, without a log (WDC), keeps a copy overwritten in place. Only a
//     DC or WDC read-only section's Lr can be a real join, and only when
//     the reader does not already hold the old Lr (fact 3).
//  2. WCP: release times of one lock only grow, so a thread that has joined
//     the release of m at trace index k holds every release of m at or
//     before k. RuleB keeps that index per (thread, lock), rule (a) skips a
//     cell whose release is no later, and rule (b) joins only the latest
//     entry a release consumes (see RuleB.Release).
//  3. DC and WDC: a release is known by its epoch. Every clock these
//     relations join into P is built from copies of P taken at
//     synchronization events, before that event's tick, so the only copies
//     of P_u whose u component is c — u's local clock at its release r —
//     are the ones taken at r, and every later copy of P_u contains them
//     (P only grows; trace.Check admits no event of a thread after it is
//     joined). Hence P_t(u) ≥ c means P_t already holds r's clock: the
//     argument the paper's §4.2 makes for epoch acquire queues. It is not
//     valid for WCP, whose release clocks are H, not P: a fork or a lock
//     edge can give P_t u's local time without the rest of H_r.
//
// Every ordering test still runs as before, on the same clocks, and every
// hook edge is still drawn, so cursors, P, H, the graph and the reports are
// unchanged; TestSubstrateMatchesReference holds the substrates to the
// join-everything reference after every event.
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
// The diagonal, which no cursor uses (a thread never consumes its own log),
// holds WCP's per-(thread, lock) record: heads[t][t] is one past the trace
// index of the latest release of the lock whose clock t's P has joined, 0
// for none (fact 2 of the package comment).
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
// current owners and t's own diagonal slot.
func (ll *lockLogs) cursors(t trace.Tid) []int32 {
	analysis.EnsureLen(&ll.heads, int(t)+1)
	row := ll.heads[t]
	if n := max(len(ll.byOwner), int(t)+1); len(row) < n {
		analysis.EnsureLen(&row, n)
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
// clock; then the current release time is logged, and its name returned (At
// reads it). For WCP the logged release time is the HB clock (left
// HB-composition); for DC it is the relation clock itself. idx is the trace
// index of the release event; hook (optional) receives rule (b) constraint
// edges, one per consumed entry whether or not its time needed joining.
//
// A consumed release time t already holds is not joined (package comment,
// facts 2 and 3). For DC that is the epoch test on the owner's component of
// the logged clock. For WCP every consumed entry is a release of m, so the
// join of them all is the one with the highest trace index: it is joined
// once, after the scan, and only if t has not joined that release or a
// later one of m; meanwhile the ordered test reads the owner's component of
// that entry's clock as if it had been joined.
func (b *RuleB) Release(t trace.Tid, m uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) vc.Ref {
	p := s.P[t]
	ll := b.lockState(m)
	heads := ll.cursors(t)
	wcp := b.rel == analysis.WCP
	var latest csEntry // WCP: the consumed entry with the highest trace index
	var latestC vc.VC  // its release time, read when an ordered test needs it
	var viewed vc.Ref  // the release time latestC reads
	// Owners iterate in ascending thread order — the same order as the old
	// pre-sized per-pair queues. Determinism matters: JoinP below grows p
	// (for WCP, latestC stands for what it would have grown p by), which
	// the ordered test reads, so the iteration order is part of the
	// algorithm's observable behavior.
	for owner, lg := range ll.byOwner {
		if owner == int(t) {
			continue
		}
		u := vc.Tid(owner)
		h := heads[owner]
		for int(h) < len(lg) {
			front := lg[h]
			var ordered bool
			switch {
			case wcp:
				c := vc.Epoch(front.acq).Clock()
				if ordered = c <= p.Get(u); !ordered && latest.rel != 0 {
					if viewed != latest.rel {
						latestC, viewed = b.clocks.At(latest.rel), latest.rel
					}
					ordered = c <= latestC.Get(u)
				}
			case b.epochAcq:
				ordered = vc.EpochLeq(vc.Epoch(front.acq), p)
			default:
				acq := b.clocks.At(vc.Ref(front.acq))
				ordered = acq.Leq(p)
			}
			if !ordered {
				break
			}
			h++
			if wcp { // rule (b): r1 ≺ r2
				if latest.rel == 0 || front.idx > latest.idx {
					latest = front
				}
			} else if rel := b.clocks.At(front.rel); rel.Get(u) > p.Get(u) {
				s.JoinP(t, &rel)
			}
			if hook != nil {
				hook.Edge(front.idx, idx)
			}
		}
		heads[owner] = h
	}
	if latest.rel != 0 && heads[t] <= latest.idx {
		rel := b.clocks.At(latest.rel)
		s.JoinP(t, &rel)
		heads[t] = latest.idx + 1
	}
	snap := p
	if wcp {
		snap = s.H[t]
	}
	own := ll.byOwner[t]
	cs := &own[len(own)-1] // the section t's acquire of m opened
	cs.rel, cs.idx = b.clocks.Put(snap), idx
	return cs.rel
}

// At returns a read-only view of the release time Release logged as r.
func (b *RuleB) At(r vc.Ref) vc.VC { return b.clocks.At(r) }

// joined returns WCP's record of the latest release of m whose clock t's P
// has joined: one past its trace index, 0 for none (see lockLogs).
func (b *RuleB) joined(t trace.Tid, m uint32) *int32 {
	return &b.lockState(m).cursors(t)[t]
}

// Weight estimates retained rule (b) metadata in 8-byte words: the cursor
// rows (and with them WCP's per-(thread, lock) record) and entry slices at
// their capacity, and the arena, which holds every clock an entry names —
// and every clock a rule (a) cell names.
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

// pageBits/pageSize set the rule (a) paging granularity: 16 cells (640B)
// per page balances the footprint of a sparse lock touching few, scattered
// variables (the DaCapo-calibrated workloads' shape: ~140 live (lock, var)
// pairs spread over a ~600-variable space) against per-access indexing
// depth (two levels) and allocation count.
const (
	pageBits = 4
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Cell marks: which access sets of the lock's ongoing critical section
// contain the variable, and whether Lr is a join of several release times.
// A release clears the first two and keeps the third.
const (
	inReadSet uint8 = 1 << iota
	inWriteSet
	lrJoined
)

// aSide is one of a cell's two release times, Lr or Lw, with the trace
// index of the latest release folded into it (for constraint-graph edges).
// It holds either one release's clock — named in rule (b)'s arena (ref), or,
// with no log, a copy in own — or, for a DC/WDC Lr marked lrJoined, a join
// of several in own. own's storage stays while ref names the time, for the
// next time the side becomes a join. Empty: no ref and no own.
type aSide struct {
	own *vc.VC
	ref vc.Ref
	idx int32
}

func (sd *aSide) set() bool { return sd.ref != 0 || sd.own != nil }

// aCell is the rule (a) state of one (lock, variable) pair: Lr and Lw, the
// threads whose release a one-release side holds (the epoch test reads that
// thread's component), and the marks. 40 bytes, and the whole per-access
// rule (a) path is two slice indexings.
type aCell struct {
	lr, lw     aSide
	lrBy, lwBy trace.Tid
	mark       uint8
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
	log   *RuleB // the relation's rule (b) log, whose clocks cells name; nil for WDC
	wcp   bool
}

// NewLockTables builds empty rule (a) tables from capacity hints. log is the
// relation's rule (b) state, nil for WDC; with a log, Release must be given
// the name under which log has just logged the release time.
func NewLockTables(spec analysis.Spec, log *RuleB) *LockTables {
	return &LockTables{locks: make([]*lockTab, spec.Locks), log: log, wcp: log != nil && log.rel == analysis.WCP}
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

// at returns the release time a set side holds.
func (lt *LockTables) at(sd *aSide) vc.VC {
	if sd.ref != 0 {
		return lt.log.clocks.At(sd.ref)
	}
	return *sd.own
}

// holds reports whether p, t's relation clock, holds the one release time
// side sd holds, by the epoch test on u, the thread that released it (fact
// 3: DC and WDC only). A release of t's own is held without reading it: P
// only grows.
func (lt *LockTables) holds(t trace.Tid, p *vc.VC, sd *aSide, u trace.Tid) bool {
	if u == t {
		return true
	}
	c := lt.at(sd)
	return c.Get(vc.Tid(u)) <= p.Get(vc.Tid(u))
}

// join joins side sd of a cell on m into t's relation clock (rule (a):
// rel(m) ≺ the current access), unless t provably holds it already: for
// WCP, t has joined this release of m or a later one (fact 2); for DC and
// WDC, the epoch test on u, whose release a one-release side holds (fact 3).
// A joined side has no such test. It returns the number of clocks joined.
func (lt *LockTables) join(t trace.Tid, m uint32, s *analysis.SyncState, sd *aSide, u trace.Tid, joined bool) int {
	switch {
	case lt.wcp:
		known := lt.log.joined(t, m)
		if *known > sd.idx {
			return 0
		}
		*known = sd.idx + 1
	case !joined && lt.holds(t, s.P[t], sd, u):
		return 0
	}
	c := lt.at(sd)
	s.JoinP(t, &c)
	return 1
}

// ReadJoin applies rule (a) for a read of x inside a critical section on m:
// joins the release times of prior critical sections on m that wrote x, and
// records x in the ongoing critical section's read set. It returns the
// number of release times it joined, 0 or 1.
func (lt *LockTables) ReadJoin(t trace.Tid, m, x uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) (joins int) {
	tb := lt.tab(m)
	cl := tb.cell(x)
	if cl.lw.set() {
		joins = lt.join(t, m, s, &cl.lw, cl.lwBy, false)
		if hook != nil {
			hook.Edge(cl.lw.idx, idx)
		}
	}
	if cl.mark&(inReadSet|inWriteSet) == 0 {
		tb.touched = append(tb.touched, x)
	}
	cl.mark |= inReadSet
	return joins
}

// WriteJoin applies rule (a) for a write of x inside a critical section on
// m: joins the release times of prior critical sections on m that read or
// wrote x, and records x in the ongoing critical section's write set. FTO's
// Rm and Lr also represent writes (Algorithm 2 line 19), which needs no
// read mark here: a later write joins Lr ⊔ Lw and a later read joins Lw, so
// folding a write into Lr as well as Lw changes no join. It returns the
// number of release times it joined, 0 to 2.
func (lt *LockTables) WriteJoin(t trace.Tid, m, x uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) (joins int) {
	tb := lt.tab(m)
	cl := tb.cell(x)
	if cl.lr.set() {
		joins = lt.join(t, m, s, &cl.lr, cl.lrBy, cl.mark&lrJoined != 0)
		if hook != nil {
			hook.Edge(cl.lr.idx, idx)
		}
	}
	if cl.lw.set() {
		joins += lt.join(t, m, s, &cl.lw, cl.lwBy, false)
		if hook != nil {
			hook.Edge(cl.lw.idx, idx)
		}
	}
	if cl.mark&(inReadSet|inWriteSet) == 0 {
		tb.touched = append(tb.touched, x)
	}
	cl.mark |= inWriteSet
	return joins
}

// Release folds the ongoing critical section's access sets into Lr/Lw with
// t's release time rt (Algorithm 1 lines 9–11): the relation clock for DC
// and WDC, the HB clock for WCP. named is the name under which the
// relation's rule (b) log has just logged rt, zero without a log. Touched
// variables fold in access order (first touch first); the sets are disjoint
// per variable, so the order is unobservable.
//
// Fact 1 of the package comment: a section that wrote x ran WriteJoin on
// the cell, so t's clock took Lr ⊔ Lw then (or already held them), and no
// other thread can release m, the only thing that changes the cell, before
// this section does. So rt contains the old Lr and Lw, and Lw ⊔ rt — and
// Lr ⊔ rt if the section also read x — is rt itself: the cell names rt.
// Under WCP the same holds for a section that only read x, because each
// acquire of m joins the previous release's H (fact 2), and under DC and
// WDC for one whose Lr is one release t already holds (fact 3). Otherwise a
// DC or WDC section that read x without writing it is the one real join.
func (lt *LockTables) Release(t trace.Tid, m uint32, rt *vc.VC, named vc.Ref, idx int32) {
	if int(m) >= len(lt.locks) {
		return
	}
	tb := lt.locks[m]
	if tb == nil {
		return
	}
	for _, x := range tb.touched {
		cl := tb.cell(x)
		switch {
		case cl.mark&inWriteSet != 0:
			hold(&cl.lw, rt, named, idx)
			cl.lwBy = t
			if cl.mark&inReadSet != 0 {
				hold(&cl.lr, rt, named, idx)
				cl.lrBy, cl.mark = t, cl.mark&^lrJoined
			}
		case lt.wcp || !cl.lr.set() || cl.mark&lrJoined == 0 && lt.holds(t, rt, &cl.lr, cl.lrBy):
			hold(&cl.lr, rt, named, idx)
			cl.lrBy = t
		default: // a read-only section, DC or WDC: Lr ⊔ rt
			if cl.lr.ref != 0 {
				old := lt.at(&cl.lr)
				if cl.lr.own == nil {
					cl.lr.own = old.Copy()
				} else {
					cl.lr.own.CopyFrom(&old)
				}
				cl.lr.ref = 0
			}
			cl.lr.own.Join(rt)
			cl.lr.idx = idx
			cl.mark |= lrJoined
		}
		cl.mark &= lrJoined
	}
	tb.touched = tb.touched[:0]
}

// hold makes sd hold the one release time rt: named, or copied into its own
// storage when there is no log.
func hold(sd *aSide, rt *vc.VC, named vc.Ref, idx int32) {
	sd.idx = idx
	switch {
	case named != 0:
		sd.ref = named
	case sd.own == nil:
		sd.own = rt.Copy()
	default:
		sd.own.CopyFrom(rt)
	}
}

// aCellWords is the footprint of one dense cell in 8-byte words (two
// clock pointers, two names, two indices, two owners, the marks and
// padding).
const aCellWords = 5

// Weight estimates retained rule (a) metadata in 8-byte words, counting
// every materialized page at its full dense footprint — the memory the
// paged representation actually holds, including unused cells — plus each
// lock's table (two slice headers, both slices at capacity) and the clocks
// the cells own, each with its 3-word header. A clock a cell names is the
// rule (b) log's, and RuleB.Weight counts it.
func (lt *LockTables) Weight() int {
	w := 0
	for _, tb := range lt.locks {
		if tb == nil {
			continue
		}
		w += 6 + (cap(tb.touched)+1)/2 + cap(tb.pages)
		for _, p := range tb.pages {
			if p == nil {
				continue
			}
			w += pageSize * aCellWords
			for i := range p {
				for _, own := range [2]*vc.VC{p[i].lr.own, p[i].lw.own} {
					if own != nil {
						w += own.Weight() + 3
					}
				}
			}
		}
	}
	return w
}
