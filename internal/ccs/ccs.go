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
// Representation. Both structures index by id rather than hashing: rule (a)
// state is a trace.Table of per-(lock, var) cells (aCell) per lock, in a
// trace.Table of locks, so the per-access path is table lookups with no map
// lookups or per-access heap traffic, and rule (b) keeps its per-lock logs
// in a trace.Table and its cursors in dense [observer][owner] slices (thread
// ids are small). Rule (b)'s history is flat: a 12-byte pointer-free entry
// per critical section, in fixed blocks of 16 drawn from one store per
// RuleB, so a log is the list of its blocks' numbers, and every logged clock
// in one vc.Arena per RuleB. Neither blocks nor arena chunks are ever
// reallocated. The arena can be write-once because a logged time is never
// updated — the log only ever appends, and a cursor only ever reads what is
// behind it — which is what lets SmartTrack's sections and rule (a)'s cells
// name the logged release clock instead of copying it, and it keeps a
// history of a million clocks out of the collector's mark phase. A logged
// clock is a thread's, and most of a thread's logged clocks differ from its
// previous one only in its own component (on h2, half of WCP's release
// clocks, 71 % of DC's and nearly every vector acquire): RuleB keeps per
// thread a base, the last of its clocks stored whole, and logs a clock equal
// to it off the thread's component as a 12-byte record (the base's length
// and name, and that component). Every reader — the ordered tests and joins
// of Release, and rule (a) — reads a logged clock through vc.Rel, the view
// that takes the owner's component from the record and every other from the
// base, and joins it through SyncState.JoinRel, which gives WCP's
// self-knowledge the owner's component when the joining thread logged it.
// That is exact: the arena never writes a clock once stored, a base equals
// the logged clock off the owner's component, the record holds the owner's,
// and nothing reads the base alone. Without a log (WDC) LockTables keeps the
// same shape itself: per thread a read-only snapshot of its clock, replaced
// by a fresh exact copy only when a release's clock differs from it off the
// thread's component, and a cell's one-release side names that snapshot and
// holds the owner's component, read through the same view.
//
// Known releases are not joined again. The paper's algorithms join a
// release time into the thread's clock at every rule (a) conflict and every
// rule (b) consumption, and at every release join the release time into
// each touched cell; on the sync-dense traces nearly all of those joins are
// no-ops. Three facts let the substrates skip them exactly:
//
//  1. A cell's Lw is one release's clock, and so is Lr after a critical
//     section that read and wrote the variable (see LockTables.Release).
//     Such a cell names the clock rule (b) logged for that release, whole
//     or record, and reads it through the view, with the releasing thread
//     as its owner — RuleB logs exactly the release time rule (a) folds —
//     or, without a log (WDC), names the releasing thread's snapshot and
//     the owner's component, read through the same view. Only a DC or WDC
//     read-only section's Lr can be a real join, copied out of the view
//     into the cell's own storage, and only when the reader does not
//     already hold the old Lr (fact 3); no other side owns a clock.
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
// Every ordering test still runs as before, on the same clocks, so cursors,
// P, H and the reports are unchanged; TestSubstrateMatchesReference holds the
// substrates to the join-everything reference after every event.
//
// Rule (b) draws one edge per owner a release consumes from, from the last
// entry consumed (see RuleB.Release): each paper edge it leaves out comes
// from an earlier entry of that owner, before the drawn edge's source in
// program order, into the same release. Rule (a) draws one edge per side it
// joins or skips, from the side's latest release, by the thread a cell
// records with it. Every edge goes to the graph with both endpoints' threads,
// and the graph keeps only those program order and a kept edge do not imply
// (see graph.Graph.Edge). So which events reach which — all vindication reads
// — is unchanged, as TestRuleBEdgesKeepReachability checks here and
// TestGraphEdgesKeepReachability in package unopt for every edge kind.
package ccs

import (
	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
)

// csEntry is one critical section in its (lock, owner) log: 12 bytes, no
// pointers. acq is the acquire time: with epoch acquires (SmartTrack, and
// WCP at every level: for WCP the ordering test a₁ ≺WCP r₂ is exactly the
// component test P_r₂(t') ≥ local(a₁) under left HB-composition, so only the
// epoch is meaningful) the owner's clock at the acquire, the epoch's thread
// being the log's owner; otherwise the arena Ref of a vector clock, whole or
// record (DC at the Unopt/FTO levels, Algorithm 1 line 2). rel is the arena
// Ref of the release time, zero while the section is open, and idx the
// release's trace index (for constraint-graph edges). The log's owner is the
// owner of both clocks, the thread their views read own for.
type csEntry struct {
	acq vc.Clock
	rel vc.Ref
	idx int32
}

// blockLen is the number of entries in a block, and chunkBlocks the number
// of blocks in one chunk of a RuleB's store: 192 and 6144 bytes.
const (
	blockLen    = 16
	chunkBlocks = 32
)

// csBlock is blockLen consecutive entries of one log.
type csBlock [blockLen]csEntry

// csLog is one (lock, owner) log: its n entries in order, blockLen to a
// block, in the blocks of its RuleB's store that blocks numbers; acq is the
// owner's clock at its last acquire, relOwn and relIdx the owner's component
// of its last closed release time and that release's trace index.
type csLog struct {
	blocks []uint32
	n      int32
	acq    vc.Clock
	relOwn vc.Clock
	relIdx int32
}

// blockStore holds the blocks of every log of one RuleB, chunkBlocks to a
// chunk; a block's number is its chunk and its index there. A chunk is
// never reallocated — a full one starts the next — so an entry's address
// never changes as logs grow.
type blockStore struct {
	chunks [][]csBlock
}

// alloc returns the number of a fresh, zeroed block.
func (s *blockStore) alloc() uint32 {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == chunkBlocks {
		s.chunks = append(s.chunks, make([]csBlock, 0, chunkBlocks))
		last++
	}
	c := s.chunks[last]
	s.chunks[last] = c[:len(c)+1]
	return uint32(last*chunkBlocks + len(c))
}

// block returns the block n numbers.
func (s *blockStore) block(n uint32) *csBlock {
	return &s.chunks[n/chunkBlocks][n%chunkBlocks]
}

// lockLogs holds the per-owner logs for one lock — byOwner[t] is t's log of
// critical sections on the lock (RuleB.entry reads its i-th); owner thread
// ids are dense, so a growable slice, empty for an owner with no critical
// sections here — plus the per-pair consumed-prefix cursors,
// heads[observer][owner], dense in both dimensions. The diagonal, which no
// cursor uses (a thread never consumes its own log), holds WCP's
// per-(thread, lock) record: heads[t][t] is one past the trace index of the
// latest release of the lock whose clock t's P has joined, 0 for none (fact
// 2 of the package comment).
//
// Per-lock mutual exclusion guarantees that whenever a thread processes its
// own release of the lock, every entry of every other owner has its release
// filled in: the owner cannot still be inside a critical section on a lock
// another thread is releasing.
type lockLogs struct {
	byOwner []csLog
	heads   [][]int32
}

// cursors returns observer t's consumed-prefix row, sized to cover all
// current owners and t's own diagonal slot.
func (ll *lockLogs) cursors(t trace.Tid) []int32 {
	trace.EnsureLen(&ll.heads, int(t)+1)
	row := ll.heads[t]
	if n := max(len(ll.byOwner), int(t)+1); len(row) < n {
		trace.EnsureLen(&row, n)
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
	locks    trace.Table[lockLogs, [lockPage]lockLogs]
	entries  blockStore // every log's blocks
	clocks   vc.Arena   // every logged acquire and release clock
	bases    []vc.Ref   // per thread, its last clock the arena holds whole
}

// NewRuleB builds empty rule (b) state. epochAcq selects epoch-valued
// acquire logs (SmartTrack's optimization); it is forced on for WCP.
func NewRuleB(rel analysis.Relation, epochAcq bool) *RuleB {
	return &RuleB{rel: rel, epochAcq: epochAcq || rel == analysis.WCP}
}

// A stream names tens to a few hundred locks: pages of 16 locks' logs
// (768 B) or of 16 rule (a) tables.
const lockPage = 16

// Acquire logs the acquire time of t's new critical section on m
// (Algorithm 1 line 2 / Algorithm 3 line 2). P is the relation clock of t
// at the acquire (after any HB lock joins, before the tick).
func (b *RuleB) Acquire(t trace.Tid, m uint32, p *vc.VC) {
	var ent csEntry
	if b.epochAcq {
		ent.acq = p.Get(vc.Tid(t))
	} else {
		ent.acq = vc.Clock(b.log(t, p))
	}
	ll := b.locks.At(m)
	trace.EnsureLen(&ll.byOwner, int(t)+1)
	lg := &ll.byOwner[t]
	if lg.n%blockLen == 0 {
		lg.blocks = append(lg.blocks, b.entries.alloc())
	}
	lg.n++
	*b.entry(lg, lg.n-1) = ent
	lg.acq = p.Get(vc.Tid(t))
}

// entry returns log lg's i-th entry.
func (b *RuleB) entry(lg *csLog, i int32) *csEntry {
	return &b.entries.block(lg.blocks[i/blockLen])[i%blockLen]
}

// log stores c, a clock of t's, in the arena: as a record over t's base
// when c equals it off t's component, otherwise whole as t's new base.
func (b *RuleB) log(t trace.Tid, c *vc.VC) vc.Ref {
	trace.EnsureLen(&b.bases, int(t)+1)
	return b.clocks.PutOver(&b.bases[t], c, vc.Tid(t))
}

// Release performs rule (b) at t's release of m (Algorithm 1 lines 4–8):
// earlier critical sections whose acquires are ordered before the current
// clock contribute their release times, which are joined into t's relation
// clock; then the current release time is logged, and its name returned (At
// reads it). For WCP the logged release time is the HB clock (left
// HB-composition); for DC it is the relation clock itself. idx is the trace
// index of the release event; hook (optional) receives rule (b) constraint
// edges: per owner, at most one, from the last entry the release consumed.
// The graph keeps program order implicit, so every edge this leaves out is
// implied by a drawn one and program order; the graph drops those an
// earlier edge into t implies (graph.Graph.Edge).
//
// A consumed release time t already holds is not joined (package comment,
// facts 2 and 3). For DC that is the epoch test on the owner's component of
// the logged clock. For WCP every consumed entry is a release of m, so the
// join of them all is the one with the highest trace index: it is joined
// once, after the scan, and only if t has not joined that release or a
// later one of m; meanwhile the ordered test reads the owner's component of
// that entry's clock as if it had been joined. An owner t has caught up with
// is consumed whole without reading its entries: for WCP when its last
// acquire is ordered, for DC when t holds its last release (fact 3: then it
// holds every release and acquire before it too).
func (b *RuleB) Release(t trace.Tid, m uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) vc.Ref {
	p := s.P[t]
	ll := b.locks.At(m)
	heads := ll.cursors(t)
	wcp := b.rel == analysis.WCP
	var latest csEntry  // WCP: the consumed entry with the highest trace index
	var latestBy vc.Tid // its owner
	var latestC vc.Rel  // its release time, read when an ordered test needs it
	var viewed vc.Ref   // the release time latestC reads
	// Owners iterate in ascending thread order — the same order as the old
	// pre-sized per-pair queues. Determinism matters: JoinRel below grows p
	// (for WCP, latestC stands for what it would have grown p by), which
	// the ordered test reads, so the iteration order is part of the
	// algorithm's observable behavior.
	for owner := range ll.byOwner {
		lg := &ll.byOwner[owner]
		h := heads[owner]
		if owner == int(t) || h == lg.n {
			continue
		}
		u := vc.Tid(owner)
		src := int32(-1) // the trace index of the last entry consumed
		switch {
		case wcp && lg.acq <= p.Get(u):
			h = lg.n - 1 // all ordered: the scan reads only the last, for latest
		case !wcp && lg.relOwn <= p.Get(u):
			h, src = lg.n, lg.relIdx
		}
		for h < lg.n {
			front := *b.entry(lg, h)
			var ordered bool
			switch {
			case wcp:
				c := front.acq
				if ordered = c <= p.Get(u); !ordered && latest.rel != 0 {
					if viewed != latest.rel {
						latestC, viewed = b.clocks.At(latest.rel, latestBy), latest.rel
					}
					ordered = c <= latestC.Get(u)
				}
			case b.epochAcq:
				ordered = front.acq <= p.Get(u)
			default:
				acq := b.clocks.At(vc.Ref(front.acq), u)
				ordered = acq.Leq(p)
			}
			if !ordered {
				break
			}
			h, src = h+1, front.idx
			if wcp { // rule (b): r1 ≺ r2
				if latest.rel == 0 || front.idx > latest.idx {
					latest, latestBy = front, u
				}
			} else if b.clocks.Own(front.rel, u) > p.Get(u) {
				rel := b.clocks.At(front.rel, u)
				s.JoinRel(t, &rel)
			}
		}
		heads[owner] = h
		if hook != nil && src >= 0 {
			hook.Edge(src, idx, trace.Tid(owner), t)
		}
	}
	if latest.rel != 0 && heads[t] <= latest.idx {
		rel := b.clocks.At(latest.rel, latestBy)
		s.JoinRel(t, &rel)
		heads[t] = latest.idx + 1
	}
	snap := p
	if wcp {
		snap = s.H[t]
	}
	own := &ll.byOwner[t]
	cs := b.entry(own, own.n-1) // the section t's acquire of m opened
	cs.rel, cs.idx = b.log(t, snap), idx
	own.relOwn, own.relIdx = snap.Get(vc.Tid(t)), idx
	return cs.rel
}

// At returns a read-only view of the clock that owner's Acquire or Release
// logged as r.
func (b *RuleB) At(r vc.Ref, owner trace.Tid) vc.Rel { return b.clocks.At(r, vc.Tid(owner)) }

// joined returns WCP's record of the latest release of m whose clock t's P
// has joined: one past its trace index, 0 for none (see lockLogs).
func (b *RuleB) joined(t trace.Tid, m uint32) *int32 {
	return &b.locks.At(m).cursors(t)[t]
}

// Weight estimates retained rule (b) metadata in 8-byte words: the lock
// table of lockLogs (two slice headers each), each lock's cursor rows (and
// with them WCP's per-(thread, lock) record) at their capacity, its logs (a
// 5-word header each, and block numbers), the store's entry blocks at
// capacity, whole chunks however few of their blocks are in use, the
// per-thread bases, and the arena, which holds every clock an entry names —
// and every clock a rule (a) cell names — with each base once however many
// records view it.
func (b *RuleB) Weight() int {
	w := b.clocks.Weight() + (cap(b.bases)+1)/2
	w += 3*cap(b.entries.chunks) + len(b.entries.chunks)*chunkBlocks*blockLen*3/2 // 12-byte entries
	return w + b.locks.Weight(6, func(ll *lockLogs) int {
		w := 3*cap(ll.heads) + 5*cap(ll.byOwner)
		for _, row := range ll.heads {
			w += (cap(row) + 1) / 2
		}
		for _, lg := range ll.byOwner {
			w += (cap(lg.blocks) + 1) / 2
		}
		return w
	})
}

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
// with no log, viewed over the releasing thread's snapshot (own) with the
// owner's component held in ref — or, for a DC/WDC Lr marked lrJoined, a
// join of several in own, the cell's own storage and the only clock a cell
// owns. Empty: no ref and no own.
type aSide struct {
	own *vc.VC
	ref vc.Ref
	idx int32
}

func (sd *aSide) set() bool { return sd.ref != 0 || sd.own != nil }

// aCell is the rule (a) state of one (lock, variable) pair: Lr and Lw, the
// threads of each side's latest release (a one-release side's epoch test
// reads that thread's component; every side's graph edge comes from it),
// and the marks. 40 bytes.
type aCell struct {
	lr, lw     aSide
	lrBy, lwBy trace.Tid
	mark       uint8
}

// lockTab is the per-lock rule (a) table: cells by variable id, plus the
// list of variables touched by the ongoing critical section (the old rs/ws
// sets, now a slice with per-cell marks so membership tests are O(1)
// without hashing).
type lockTab struct {
	cells   trace.Table[aCell, cellPage]
	touched []uint32
}

// cellPage is a rule (a) page: 16 cells (640 B) balance the footprint of a
// sparse lock touching few, scattered variables (the DaCapo-calibrated
// workloads' shape: ~140 live (lock, var) pairs spread over a ~600-variable
// space) against allocation count.
type cellPage = [16]aCell

// LockTables is rule (a) state for the Unopt and FTO levels: per lock, the
// joined release times of critical sections that read (Lr) or wrote (Lw)
// each variable, plus the variables accessed by the lock's ongoing critical
// section.
type LockTables struct {
	locks trace.Table[*lockTab, [lockPage]*lockTab]
	log   *RuleB   // the relation's rule (b) log, whose clocks cells name; nil for WDC
	snap  []*vc.VC // without a log: per thread, the snapshot of its clock its cells view
	wcp   bool
}

// NewLockTables builds empty rule (a) tables. log is the relation's rule (b)
// state, nil for WDC; with a log, Release must be given the name under which
// log has just logged the release time.
func NewLockTables(log *RuleB) *LockTables {
	return &LockTables{log: log, wcp: log != nil && log.rel == analysis.WCP}
}

func (lt *LockTables) tab(m uint32) *lockTab {
	tb := lt.locks.At(m)
	if *tb == nil {
		*tb = new(lockTab)
	}
	return *tb
}

// at returns the release time a set side holds; u is the thread whose
// release a one-release side holds, and joined says the side is a join.
func (lt *LockTables) at(sd *aSide, u trace.Tid, joined bool) vc.Rel {
	switch {
	case joined:
		return vc.Whole(*sd.own, vc.Tid(u))
	case lt.log != nil:
		return lt.log.At(sd.ref, u)
	}
	return vc.Relative(*sd.own, vc.E(vc.Tid(u), vc.Clock(sd.ref)))
}

// snapshot returns the one-release side that names rt, t's release time, in
// a table without a log: t's snapshot and rt's t component. The snapshot is
// replaced by a fresh exact copy of rt — never written in place: cells view
// the old one — when rt differs from it off t's component.
func (lt *LockTables) snapshot(t trace.Tid, rt *vc.VC, idx int32) aSide {
	trace.EnsureLen(&lt.snap, int(t)+1)
	tt := vc.Tid(t)
	sn := lt.snap[t]
	if sn == nil || !sn.EqualExcept(rt, tt) {
		sn = new(vc.VC)
		sn.CopyExact(rt)
		lt.snap[t] = sn
	}
	return aSide{own: sn, ref: vc.Ref(rt.Get(tt)), idx: idx}
}

// holds reports whether p, t's relation clock, holds the one release time
// side sd holds, by the epoch test on u, the thread that released it (fact
// 3: DC and WDC only). A release of t's own is held without reading it: P
// only grows.
func (lt *LockTables) holds(t trace.Tid, p *vc.VC, sd *aSide, u trace.Tid) bool {
	if u == t {
		return true
	}
	own := vc.Clock(sd.ref) // without a log, the owner's component itself
	if lt.log != nil {
		own = lt.log.clocks.Own(sd.ref, vc.Tid(u))
	}
	return own <= p.Get(vc.Tid(u))
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
	c := lt.at(sd, u, joined)
	s.JoinRel(t, &c)
	return 1
}

// ReadJoin applies rule (a) for a read of x inside a critical section on m:
// joins the release times of prior critical sections on m that wrote x, and
// records x in the ongoing critical section's read set. It returns the
// number of release times it joined, 0 or 1.
func (lt *LockTables) ReadJoin(t trace.Tid, m, x uint32, s *analysis.SyncState, idx int32, hook analysis.Hook) (joins int) {
	tb := lt.tab(m)
	cl := tb.cells.At(x)
	if cl.lw.set() {
		joins = lt.join(t, m, s, &cl.lw, cl.lwBy, false)
		if hook != nil {
			hook.Edge(cl.lw.idx, idx, cl.lwBy, t)
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
	cl := tb.cells.At(x)
	if cl.lr.set() {
		joins = lt.join(t, m, s, &cl.lr, cl.lrBy, cl.mark&lrJoined != 0)
		if hook != nil {
			hook.Edge(cl.lr.idx, idx, cl.lrBy, t)
		}
	}
	if cl.lw.set() {
		joins += lt.join(t, m, s, &cl.lw, cl.lwBy, false)
		if hook != nil {
			hook.Edge(cl.lw.idx, idx, cl.lwBy, t)
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
// relation's rule (b) log has just logged rt, zero without a log, where a
// cell views t's snapshot of rt instead (LockTables.snapshot). Touched
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
	tb := *lt.locks.At(m)
	if tb == nil || len(tb.touched) == 0 {
		return
	}
	one := aSide{ref: named, idx: idx} // rt, as a one-release side holds it
	if lt.log == nil {
		one = lt.snapshot(t, rt, idx)
	}
	for _, x := range tb.touched {
		cl := tb.cells.At(x)
		switch {
		case cl.mark&inWriteSet != 0:
			cl.lw, cl.lwBy = one, t
			if cl.mark&inReadSet != 0 {
				cl.lr, cl.lrBy, cl.mark = one, t, cl.mark&^lrJoined
			}
		case lt.wcp || !cl.lr.set() || cl.mark&lrJoined == 0 && lt.holds(t, rt, &cl.lr, cl.lrBy):
			cl.lr, cl.lrBy = one, t
		default: // a read-only section, DC or WDC: Lr ⊔ rt
			if cl.mark&lrJoined == 0 { // one release, out of the view into own storage
				old := lt.at(&cl.lr, cl.lrBy, false)
				cl.lr.own = old.Copy()
			}
			cl.lr.own.Join(rt)
			cl.lr.ref, cl.lr.idx, cl.lrBy = 0, idx, t
			cl.mark |= lrJoined
		}
		cl.mark &= lrJoined
	}
	tb.touched = tb.touched[:0]
}

// aCellWords is the footprint of one dense cell in 8-byte words (two
// clock pointers, two names or owner's components, two indices, two
// owners, the marks and padding), and lockTabWords that of a lock's table
// (its cell table's window, map and page count, and the touched list).
const aCellWords, lockTabWords = 5, 8

// Weight estimates retained rule (a) metadata in 8-byte words: the lock
// table, each lock's table (its cell table, every page at its full width —
// the memory the table actually holds, including unused cells — and its
// touched list at capacity), the clocks the cells own, and without a log the
// snapshots, each clock with its 3-word header and each snapshot once
// however many sides view it. A clock a cell names is the rule (b) log's,
// and RuleB.Weight counts it.
func (lt *LockTables) Weight() int {
	w := cap(lt.snap)
	snaps := make(map[*vc.VC]bool)
	clock := func(c *vc.VC) int {
		if snaps[c] {
			return 0
		}
		snaps[c] = true
		return analysis.ClockWords(c)
	}
	for _, sn := range lt.snap {
		w += clock(sn)
	}
	return w + lt.locks.Weight(1, func(tb **lockTab) int {
		if *tb == nil {
			return 0
		}
		cells := (*tb).cells.Weight(aCellWords, func(c *aCell) int { return clock(c.lr.own) + clock(c.lw.own) })
		return lockTabWords + (cap((*tb).touched)+1)/2 + cells
	})
}
