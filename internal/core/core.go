// Package core implements the paper's primary contribution: the SmartTrack
// algorithm (Algorithm 3), which layers conflicting-critical-section (CCS)
// optimizations on top of the epoch and ownership optimizations of
// Algorithm 2, for the WCP, DC, and WDC relations.
//
// Instead of per-(lock, variable) tables, SmartTrack keeps per-variable CCS
// metadata that mirrors the last-access metadata:
//
//   - Ht: each thread's current critical-section (CS) list — for every held
//     lock, a *reference* to a node that will receive the critical
//     section's release time when the release happens (deferred update).
//   - Lw_x / Lr_x: the CS lists of the accesses represented by Wx / Rx.
//   - Er_x / Ew_x: "extra" per-thread (thread, section) entries preserving
//     CCS information that updating Lr_x/Lw_x at a write would lose
//     (Figure 4(c)/(d)).
//
// A CS list is persistent: a pointer to the node of the innermost open
// critical section, each node linking to the enclosing one, and a node is
// its critical section. An acquire allocates one node; an access captures
// the thread's list by storing that pointer; a release in nesting order
// fills the node's time in place and pops. A release out of nesting order
// rebuilds the nodes inside the released one as fresh nodes, each recorded
// in the thread's alias list as standing for the node it replaces, which
// lists captured earlier hold: the release of a rebuilt node fills it and,
// transitively, every node it aliases, and drops those entries. The alias
// list only names the thread's open sections, one entry per out-of-order
// release each has outlived.
//
// A section has no release time before the release: its released flag is
// false, and every ordering query against it fails. A release time is only
// ever (1) asked for one thread's component, to test whether the release is
// ordered before the current access — false by the flag while the section
// is open — or (2) joined into the clock of a thread that holds the
// section's lock, and a section owned by u ≠ t on a lock t holds has been
// released (mutual exclusion, which trace.Checker enforces). Both go through
// the section's vc.Rel, the owner-relative view (at; joinSec through
// SyncState.JoinRel), so ST-WDC keeps a release by t as own, P[t](t)@t,
// over snap[t], t's snapshot of P[t], which the release replaces by a fresh
// exact copy only if P[t] differs from it off t's component. That is exact:
// a snapshot is never written once published, so it equals P[t] at every
// release viewing it on each component but t's, where it holds an earlier
// time than own. Memory only falls: one snapshot at most per section.
//
// Sections are what the analysis keeps most of, one per acquire, so each is
// held to a small Go size class: a vc.Rel is 16 bytes (a pointer into the
// base and its length, the owner and its component), and the list node that
// is the section 32 — the enclosing node, the view, the lock and two flags.
// A list is as deep as the locks held, so its outermost node is a short walk
// up, not a field. A variable slot is 40 bytes: the shared read clock sits
// in the cold block, which every [Read Share] allocates anyway, so only a
// shared variable's reads take the extra hop.
//
// ST-WCP and ST-DC hold the view of the clock — H[t] for WCP, P[t] for DC —
// that ccs.RuleB.Release logs as its last step, with nothing run between
// that and the section's fill: the same shape over the log's arena, where a
// clock equal to t's base off t's component is a record of own over that
// base. A section of t's own can be joined into t's clock (through a list
// another thread captured, or extras), which is why joinSec goes through
// JoinRel: WCP's self-knowledge takes own, not the base's earlier time.
//
// MultiCheck fuses the CCS detection with the race check: it walks a prior
// access's CS list from outermost to innermost; an ordered release subsumes
// everything inner (and the race check); a release on a lock the current
// thread holds is a conflicting critical section, whose time is joined into
// the current clock; leftovers become "extra" metadata; if nothing matched,
// the ordinary epoch race check runs.
//
// The [Same Epoch] cases, nearly every access of a typical trace, are
// decided inside HandleRun's loop (stVar.sameEpoch, inlined, over an
// inlined page lookup): such an access costs its index, one load of P[t]'s
// own component and one compare, and never reaches read or write.
//
// Implementation note (the paper leaves this implicit): MultiCheck is never
// useful when the prior access's thread u equals the current thread t — all
// CCS ordering from t's own critical sections is vacuous by program order
// and the race check trivially passes. We return early in that case, which
// also keeps t's own open sections out of (2).
package core

import (
	"slices"

	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
)

// csNode is one critical section on lock m and its element of a CS list,
// innermost first — the paper's head-to-tail presentation: the object CS
// lists and extra metadata share, so that all of them see its release time
// once it exists. up never changes; the rest changes once, at the release.
// A node is the one allocation of an acquire: 32 bytes.
type csNode struct {
	up       *csNode // the enclosing critical section; nil at the outermost
	rel      vc.Rel  // the release time, relative to its owner; zero until released
	m        uint32
	released bool
	seen     bool // MetadataWeight's visited mark
}

// at returns u's component of the section's release time.
func (n *csNode) at(u vc.Tid) vc.Clock { return n.rel.Get(u) }

// before reports whether the section's release is ordered before an access
// with clock p, judged by u's component (u is the section's owner except in
// [Write Exclusive]'s second MultiCheck).
func (n *csNode) before(u vc.Tid, p *vc.VC) bool {
	return n.released && n.at(u) <= p.Get(u)
}

// outer returns the outermost critical section of the non-empty list l.
func outer(l *csNode) *csNode {
	for l.up != nil {
		l = l.up
	}
	return l
}

// push returns l extended by a new innermost critical section on m.
func push(l *csNode, m uint32) *csNode { return &csNode{up: l, m: m} }

// alias records that a non-LIFO release rebuilt node orig of an open
// critical section as node rebuilt.
type alias struct{ rebuilt, orig *csNode }

// without returns l with section s removed (s is in l but not innermost):
// each node inside s is rebuilt as a fresh node, appended to as as an alias
// of the node it replaces.
func without(l, s *csNode, as *[]alias) *csNode {
	if l == s {
		return l.up
	}
	n := &csNode{up: without(l.up, s, as), m: l.m}
	*as = append(*as, alias{n, l})
	return n
}

// extraEntry records a critical section s by thread t containing an access
// to the variable, not captured by the variable's CS lists.
type extraEntry struct {
	t vc.Tid
	s *csNode
}

// extras is the Er_x / Ew_x representation: a small flat list, since the
// paper's performance argument is that these are empty in the common case.
type extras []extraEntry

// set replaces thread u's entries with e (Erx(u) ← E).
func (ex extras) set(u vc.Tid, e extras) extras {
	out := ex[:0]
	for _, ent := range ex {
		if ent.t != u {
			out = append(out, ent)
		}
	}
	return append(out, e...)
}

// stVar is SmartTrack's per-variable metadata: the fields nearly every
// variable uses, 40 bytes. What only shared or residual-carrying variables
// need — the read vector clock among it — sits behind cold.
type stVar struct {
	w    vc.Epoch
	r    vc.Epoch // None while shared
	lw   *csNode  // CS list of the last write
	lr   *csNode  // CS list of the last access (epoch mode)
	cold *stCold
}

// stCold is allocated at a variable's first [Read Share] or first residual
// and kept from then on: a write that retires the shared state drops rvc
// and clears lrByT for the next inflation to reuse.
type stCold struct {
	rvc    *vc.VC    // read vector clock when shared
	lrByT  []*csNode // per-thread CS lists (shared mode)
	er, ew extras
}

// shared returns v's read vector clock, nil unless v is shared.
func (v *stVar) shared() *vc.VC {
	if v.cold == nil {
		return nil
	}
	return v.cold.rvc
}

// sameEpoch reports whether an access at cur takes [Write Same Epoch],
// [Read Same Epoch] or [Shared Same Epoch]. v.r is None while v is shared,
// so only a shared variable's reads take the hop to its cold block.
func (v *stVar) sameEpoch(cur vc.Epoch, write bool) bool {
	if write {
		return v.w == cur
	}
	if v.r == cur {
		return true
	}
	rvc := v.shared()
	return rvc != nil && rvc.Get(cur.Tid()) == cur.Clock()
}

// stPage is a page of 256 variable slots, 10 kB: xalan's 1.5 M variables
// fill 6,100 of them under a window of 8,192 words, while a program
// with a few hundred variables holds a page or two.
type stPage = [256]stVar

// Analysis is SmartTrack-WCP, SmartTrack-DC, or SmartTrack-WDC.
type Analysis struct {
	_     report.Pad
	rel   analysis.Relation
	s     *analysis.SyncState
	rb    *ccs.RuleB // epoch acquire queues; nil for WDC
	vars  trace.Table[stVar, stPage]
	ht    []*csNode // current CS list per thread; a thread with a slot here has one in s
	alias [][]alias // per thread: its open sections' nodes rebuilt by non-LIFO releases
	snap  []vc.VC   // ST-WDC: per thread, the snapshot of P[t] its sections view
	col   *report.Collector
	st    analysis.Stats
	vcs   vc.Pool // recycles retired read vector clocks
	resid extras  // multiCheck's result buffer
	idx   int32
	raced bool // one dynamic race per access event
	_     report.Pad
}

// Options tunes SmartTrack for ablation studies.
type Options struct {
	// VectorAcquireQueues disables the paper's final optimization (§4.2,
	// "Optimizing Acq_m,t(t')"): rule (b) acquire queues hold full vector
	// clocks, as in Algorithms 1 and 2, instead of epochs. Used by the
	// ablation benchmarks only.
	VectorAcquireQueues bool
}

// New builds a SmartTrack analysis for relation rel; state grows on demand
// as new ids appear in the stream.
func New(rel analysis.Relation) *Analysis {
	return NewWithOptions(rel, Options{})
}

// NewWithOptions builds a SmartTrack analysis with ablation options.
func NewWithOptions(rel analysis.Relation, opts Options) *Analysis {
	if rel == analysis.HB {
		panic("core: SmartTrack does not apply to HB (Table 1 marks it N/A)")
	}
	a := &Analysis{rel: rel, s: analysis.NewSyncState(rel), col: report.NewCollector()}
	if rel != analysis.WDC {
		// SmartTrack's default uses epoch acquire queues: because every
		// analysis ticks the local clock at acquires, an epoch suffices to
		// test whether an acquire is ordered before a later release.
		a.rb = ccs.NewRuleB(rel, !opts.VectorAcquireQueues)
	}
	return a
}

// Races implements analysis.Analysis.
func (a *Analysis) Races() *report.Collector { return a.col }

// Stats returns the case counts gathered so far (Tables 2 and 12).
func (a *Analysis) Stats() *analysis.Stats { return &a.st }

// newVar is HandleRun's way to a variable Find misses: At, out of line.
// At called in the loop itself takes the table's dictionary, and that
// larger cold block moved the loop's hot code enough to cost detect-flat
// about 8 % CPU in paired runs on a 2-core Xeon.
//
//go:noinline
func (a *Analysis) newVar(x uint32) *stVar { return a.vars.At(x) }

// HandleRun implements analysis.Analysis. An access that v.sameEpoch finds
// in t's current epoch never leaves the loop; SmartTrack does nothing for
// it beyond taking the event's index, which is all a marked event gets too.
func (a *Analysis) HandleRun(evs []trace.Event, same analysis.Same) {
	for i, e := range evs {
		idx, t := a.idx, e.T
		a.idx++
		if int(t) >= len(a.ht) {
			a.s.Ensure(t)
			trace.EnsureLen(&a.ht, int(t)+1)
			trace.EnsureLen(&a.alias, int(t)+1)
			trace.EnsureLen(&a.snap, int(t)+1)
		}
		if same.Has(i) {
			continue
		}
		if !e.Op.IsAccess() {
			a.sync(e, idx)
			continue
		}
		p := a.s.P[t]
		cur := p.Epoch(vc.Tid(t))
		v, ok := a.vars.Find(e.Targ)
		if !ok {
			v = a.newVar(e.Targ)
		}
		write := e.Op == trace.OpWrite
		switch {
		case v.sameEpoch(cur, write):
		case write:
			a.write(v, p, cur, t, e.Targ, e.Loc, idx)
		default:
			a.read(v, p, cur, t, e.Targ, e.Loc, idx)
		}
	}
}

// sync processes a synchronisation event (any non-access).
func (a *Analysis) sync(e trace.Event, idx int32) {
	t := e.T
	switch e.Op {
	case trace.OpAcquire:
		a.s.PreAcquire(t, e.Targ)
		if a.rb != nil {
			a.rb.Acquire(t, e.Targ, a.s.P[t])
		}
		a.ht[t] = push(a.ht[t], e.Targ)
		a.s.PostAcquire(t, e.Targ)
	case trace.OpRelease:
		a.fillRelease(t, e.Targ, idx)
		a.s.PostRelease(t, e.Targ)
	default:
		a.s.HandleOther(e, idx)
	}
}

// fillRelease runs rule (b) at t's release of m and resolves the deferred
// release time of the critical section: the node that CS lists and extra
// metadata reference receives the release time (HB time for WCP, relation
// time for DC/WDC), as does every node it aliases, and leaves Ht.
func (a *Analysis) fillRelease(t trace.Tid, m uint32, idx int32) {
	var logged vc.Ref
	if a.rb != nil {
		logged = a.rb.Release(t, m, a.s, idx, nil)
	}
	top := a.ht[t]
	n := top
	for n != nil && n.m != m { // innermost first
		n = n.up
	}
	if n == nil {
		return
	}
	var rel vc.Rel
	if a.rb != nil {
		rel = a.rb.At(logged, t) // the log's view, shared; see the package comment
	} else {
		p, tt := a.s.P[t], vc.Tid(t)
		if !a.snap[t].EqualExcept(p, tt) {
			a.snap[t].CopyExact(p) // replaces the snapshot; the old one stays as its sections saw it
		}
		rel = vc.Relative(a.snap[t], p.Epoch(tt))
	}
	n.rel, n.released = rel, true
	if n == top {
		a.ht[t] = top.up // structured locking: the enclosing list is shared as is
	} else {
		a.ht[t] = without(top, n, &a.alias[t])
	}
	// A node's rebuild is appended after the entry that made the node, so one
	// backward pass follows n back to the node its section was acquired as.
	as := a.alias[t]
	for i := len(as) - 1; i >= 0; i-- {
		if as[i].rebuilt == n {
			n = as[i].orig
			n.rel, n.released = rel, true
			as = slices.Delete(as, i, i+1)
		}
	}
	a.alias[t] = as
}

// joinSec joins s's release time into t's clock through its view.
func (a *Analysis) joinSec(t trace.Tid, s *csNode) { a.s.JoinRel(t, &s.rel) }

func (a *Analysis) reportRace(t trace.Tid, x uint32, loc trace.Loc, idx int32, write bool, prior trace.Tid) {
	if a.raced {
		return
	}
	a.raced = true
	a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Write: write, Index: int(idx), PriorTid: prior})
}

// multiCheck is Algorithm 3's MultiCheck(L, u, a): the combined CCS and
// race check against the prior access (epoch `prior`) by thread u whose CS
// list is l, for an access by t holding `held` with clock p. It returns the
// residual critical sections neither ordered before the current access nor
// conflicting with it, in a buffer the next call reuses.
func (a *Analysis) multiCheck(l *csNode, u vc.Tid, prior vc.Epoch, t trace.Tid, held []uint32, p *vc.VC, x uint32, loc trace.Loc, idx int32, write bool) extras {
	if u == vc.Tid(t) {
		return nil // vacuous by PO; see the package comment
	}
	e := a.resid[:0]
	if l != nil {
		if outer(l).before(u, p) {
			return e // ordered: subsumes inner critical sections and the race check
		}
		var buf [8]*csNode
		secs := buf[:0]
		for n := l; n != nil; n = n.up {
			secs = append(secs, n)
		}
		slices.Reverse(secs)
		for i, s := range secs { // outermost → innermost
			if i > 0 && s.before(u, p) {
				return e
			}
			if slices.Contains(held, s.m) {
				a.joinSec(t, s) // conflicting critical sections: rel(m) ≺ current access
				return e
			}
			e = append(e, extraEntry{t: u, s: s})
			a.resid = e
		}
	}
	if !vc.EpochLeq(prior, p) {
		a.reportRace(t, x, loc, idx, write, trace.Tid(u))
	}
	return e
}

// read handles t's read of x, slot v, at epoch cur of p = P[t] in no
// same-epoch case.
func (a *Analysis) read(v *stVar, p *vc.VC, cur vc.Epoch, t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	a.raced = false
	tt, c := cur.Tid(), cur.Clock()
	held := a.s.Held(t)
	a.st.Held(len(held))
	// Extra write metadata: order with otherwise-lost write critical
	// sections on any lock the current thread holds (Read lines 4–6).
	if cd := v.cold; cd != nil && len(cd.ew) > 0 {
		for _, m := range held {
			for _, ent := range cd.ew {
				if ent.s.m == m && ent.t != tt {
					a.joinSec(t, ent.s)
				}
			}
		}
	}
	rvc := v.shared()
	if rvc == nil {
		if v.r != vc.None && v.r.Tid() == tt { // [Read Owned]
			a.st.ReadOwned++
			v.lr = a.ht[t]
			v.r = cur
			return
		}
		u := v.r.Tid()
		// The prior access and *all* of its critical sections are ordered
		// before the current read iff the outermost release is (line 11).
		var ordered bool
		if v.lr != nil {
			ordered = outer(v.lr).before(u, p)
		} else {
			ordered = vc.EpochLeq(v.r, p)
		}
		if ordered { // [Read Exclusive]
			a.st.ReadExclusive++
			v.lr = a.ht[t]
			v.r = cur
			return
		}
		// [Read Share]
		a.st.ReadShare++
		a.multiCheck(v.lw, v.w.Tid(), v.w, t, held, p, x, loc, idx, false)
		a.setLr(v, u, v.lr)
		a.setLr(v, tt, a.ht[t])
		v.lr = nil
		rvc = a.vcs.Get(a.s.Threads())
		rvc.Set(u, v.r.Clock())
		rvc.Set(tt, c)
		v.cold.rvc = rvc // setLr made the cold block
		v.r = vc.None
		return
	}
	if rvc.Get(tt) != 0 { // [Read Shared Owned]
		a.st.ReadSharedOwned++
		a.setLr(v, tt, a.ht[t])
		rvc.Set(tt, c)
		return
	}
	// [Read Shared]
	a.st.ReadShared++
	a.multiCheck(v.lw, v.w.Tid(), v.w, t, held, p, x, loc, idx, false)
	a.setLr(v, tt, a.ht[t])
	rvc.Set(tt, c)
}

// setLr stores l as thread u's shared-mode CS list of v, sizing the table
// to the threads seen so far (u is one of them).
func (a *Analysis) setLr(v *stVar, u vc.Tid, l *csNode) {
	cd := coldOf(v)
	if int(u) >= len(cd.lrByT) {
		grown := make([]*csNode, a.s.Threads())
		copy(grown, cd.lrByT)
		cd.lrByT = grown
	}
	cd.lrByT[u] = l
}

func coldOf(v *stVar) *stCold {
	if v.cold == nil {
		v.cold = new(stCold)
	}
	return v.cold
}

// write is read's counterpart for a write.
func (a *Analysis) write(v *stVar, p *vc.VC, cur vc.Epoch, t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	a.raced = false
	tt := cur.Tid()
	held := a.s.Held(t)
	a.st.Held(len(held))
	// Extra read/write metadata (Write lines 19–23): order with lost
	// critical sections on held locks, then drop the consumed entries and
	// the current thread's own entries.
	if cd := v.cold; cd != nil && len(cd.er) > 0 {
		for _, m := range held {
			for _, ent := range cd.er {
				if ent.s.m == m && ent.t != tt {
					a.joinSec(t, ent.s)
				}
			}
		}
		cd.er = dropExtras(cd.er, tt, held)
		cd.ew = dropExtras(cd.ew, tt, held)
	}
	if rvc := v.shared(); rvc == nil {
		if v.r != vc.None && v.r.Tid() == tt { // [Write Owned]
			a.st.WriteOwned++
		} else { // [Write Exclusive]
			a.st.WriteExclusive++
			u := v.r.Tid()
			if e := a.multiCheck(v.lr, u, v.r, t, held, p, x, loc, idx, true); len(e) > 0 {
				cd := coldOf(v)
				cd.er = cd.er.set(u, e)
				// Lw_x may be another thread's list here (u read after that
				// thread wrote): the sections it leaves are kept under u.
				cd.ew = cd.ew.set(u, a.multiCheck(v.lw, u, vc.None, t, held, p, x, loc, idx, true))
			}
		}
	} else { // [Write Shared]
		a.st.WriteShared++
		// Every thread with a component in rvc has an lrByT slot (both are
		// set together at reads), so the slot count bounds the candidates.
		lrByT := v.cold.lrByT
		for u := range lrByT {
			ut := vc.Tid(u)
			if ut == tt || rvc.Get(ut) == 0 {
				continue
			}
			if e := a.multiCheck(lrByT[u], ut, vc.E(ut, rvc.Get(ut)), t, held, p, x, loc, idx, true); len(e) > 0 {
				cd := v.cold
				cd.er = cd.er.set(ut, e)
				if v.w != vc.None && v.w.Tid() == ut {
					// Lwx(u) is non-empty only for the last writer's thread.
					cd.ew = cd.ew.set(ut, a.multiCheck(v.lw, ut, vc.None, t, held, p, x, loc, idx, true))
				}
			}
		}
		clear(lrByT)
		a.vcs.Put(rvc) // the write retires the shared read clock
		v.cold.rvc = nil
	}
	v.lw = a.ht[t]
	v.lr = a.ht[t]
	v.w = cur
	v.r = cur
}

// dropExtras removes entries owned by t and entries on the given locks
// (which the caller just consumed).
func dropExtras(ex extras, t vc.Tid, held []uint32) extras {
	out := ex[:0]
	for _, ent := range ex {
		if ent.t != t && !slices.Contains(held, ent.s.m) {
			out = append(out, ent)
		}
	}
	return out
}

// Words of one variable slot, cold block and list node, for MetadataWeight.
const slotWords, coldWords, nodeWords = 5, 10, 4

// MetadataWeight implements analysis.Analysis. It counts what the analysis
// holds — the variable table, cold blocks, and the list nodes and release
// clocks reachable from them, from Ht and from the alias lists, each node
// once and each ST-WDC snapshot once however many nodes view it. With a
// rule (b) log the release clocks are views of its arena, which the log's
// weight already counts whole.
func (a *Analysis) MetadataWeight() int {
	w := a.s.Weight() + cap(a.ht) + 3*(cap(a.alias)+cap(a.snap))
	if a.rb != nil {
		w += a.rb.Weight()
	}
	w += a.heldWords(true)
	a.heldWords(false) // clear the marks
	return w
}

// heldWords sums the variable table, the snapshots, the alias lists and
// every node not yet marked `seen`, marking as it goes.
func (a *Analysis) heldWords(seen bool) (w int) {
	snaps := make(map[*vc.Clock]bool)
	snap := func(k *vc.Clock, words int) {
		if k != nil && !snaps[k] {
			snaps[k] = true
			w += words
		}
	}
	for i := range a.snap {
		snap(a.snap[i].Array(), a.snap[i].Weight())
	}
	count := func(n *csNode) {
		if n.seen != seen {
			n.seen = seen
			w += nodeWords
			if a.rb == nil {
				snap(n.rel.Array(), (n.rel.Len()+1)/2) // a snapshot is an exact copy: its length is its capacity
			}
		}
	}
	list := func(l *csNode) {
		for ; l != nil; l = l.up {
			count(l)
		}
	}
	for _, l := range a.ht {
		list(l)
	}
	for _, as := range a.alias {
		w += 2 * cap(as)
		for _, e := range as {
			list(e.orig)
		}
	}
	vars := a.vars.Weight(slotWords, func(v *stVar) int {
		list(v.lw)
		list(v.lr)
		cd := v.cold
		if cd == nil {
			return 0
		}
		for _, l := range cd.lrByT {
			list(l)
		}
		for _, ent := range cd.er {
			count(ent.s)
		}
		for _, ent := range cd.ew {
			count(ent.s)
		}
		return coldWords + cap(cd.lrByT) + 2*(cap(cd.er)+cap(cd.ew)) + analysis.ClockWords(cd.rvc)
	})
	return w + vars
}

func init() {
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		analysis.Register(rel, analysis.SmartTrack, "ST-"+rel.String(),
			func() analysis.Analysis { return New(rel) })
	}
}
