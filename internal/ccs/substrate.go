package ccs

import (
	"repro/internal/analysis"
	"repro/internal/graph"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Substrate is the part of a relation's analysis that last-access metadata
// never writes: the synchronization state with its relation clock P, the
// rule (a) tables and rule (b) logs of the predictive relations, and the
// optional constraint graph. Every FT2, FTO and Unopt cell of one relation
// computes the same substrate, so a Group advances one per event under all
// of them; a standalone cell is a substrate with a single view. (SmartTrack
// cells are not views: their CS lists feed last-access metadata back into
// P, so their P differs from the other levels'.)
//
// Why sharing is exact — each cell's reports are those of its own private
// substrate:
//
//	(i)   Rule (b) state is a function of P and the sync events, and FTO and
//	      Unopt build it identically (vector-clock acquire logs, epochs for
//	      WCP).
//	(ii)  FTO's "Lr also represents writes" is unobservable: WriteJoin joins
//	      Lr ⊔ Lw and ReadJoin joins Lw, so one table without the extra read
//	      mark serves both levels.
//	(iii) A view's same-epoch skip only skips no-op joins. Within one epoch
//	      of t the held set is fixed, no other thread can release those
//	      locks, and the earlier same-epoch access already joined a superset
//	      and set the same marks. So running rule (a) whenever any view is
//	      stale leaves P, the marks and the touched lists exactly as each
//	      standalone cell has them.
//	(iv)  The graph stays edge-identical because rule (a) joins draw edges
//	      only when the view that owns the graph is itself stale.
type Substrate struct {
	_ report.Pad
	analysis.SyncState
	lt    *LockTables   // nil for HB
	rb    *RuleB        // nil for HB and WDC
	g     *graph.Graph  // nil unless the graph is built
	hook  analysis.Hook // g, or nil
	idx   int32         // events begun; the current event's trace index is idx-1
	ready int           // threads whose events Begin need not prepare for
	_     report.Pad
}

// NewSubstrate builds the substrate of relation rel from capacity hints;
// buildGraph adds the constraint graph of the "w/G" configurations.
func NewSubstrate(rel analysis.Relation, spec analysis.Spec, buildGraph bool) *Substrate {
	b := &Substrate{SyncState: *analysis.NewSyncState(rel, spec)}
	if rel != analysis.HB {
		if rel != analysis.WDC {
			b.rb = NewRuleB(rel, spec, false)
		}
		b.lt = NewLockTables(spec, b.rb)
	}
	if buildGraph {
		b.g = graph.New(spec.Events)
		b.hook = b.g
		b.SetHook(b.g, spec)
	}
	return b
}

// Graph returns the constraint graph over the events begun so far, or nil if
// not built.
func (b *Substrate) Graph() *graph.Graph {
	if b.g != nil {
		b.g.N = int(b.idx)
	}
	return b.g
}

// Begin opens the next event, by thread t: it returns the event's trace
// index and makes t's tables exist, so that direct P[t]/H[t] indexing is
// safe even on t's first event.
func (b *Substrate) Begin(t trace.Tid) int32 {
	b.idx++
	if int(t) >= b.ready { // one compare and no call on the common path, so that Begin inlines
		b.begin(t)
	}
	return b.idx - 1
}

// begin is Begin's slow path: a thread's first event, or any event of a
// graph-building substrate (whose ready stays 0).
func (b *Substrate) begin(t trace.Tid) {
	if b.g != nil {
		b.OnEvent(t, b.idx-1)
	} else {
		b.Ensure(t)
		b.ready = len(b.P)
	}
}

// Sync applies a synchronization event (any non-access).
func (b *Substrate) Sync(e trace.Event, idx int32) {
	t := e.T
	switch e.Op {
	case trace.OpAcquire:
		b.PreAcquire(t, e.Targ) // HB edges for HB and WCP; no-op for DC/WDC
		if b.rb != nil {
			b.rb.Acquire(t, e.Targ, b.P[t])
		}
		b.PostAcquire(t, e.Targ)
	case trace.OpRelease:
		var named vc.Ref
		if b.rb != nil {
			named = b.rb.Release(t, e.Targ, &b.SyncState, idx, b.hook)
		}
		if b.lt != nil {
			b.lt.Release(t, e.Targ, b.releaseTime(t), named, idx)
		}
		b.PostRelease(t, e.Targ)
	default:
		b.HandleOther(e, idx)
	}
}

// releaseTime is the clock folded into rule (a) tables at a release: the HB
// clock for WCP (so that joins left-compose WCP edges with HB), the
// relation clock itself for DC and WDC — for WCP and DC the clock rule (b)
// has just logged.
func (b *Substrate) releaseTime(t trace.Tid) *vc.VC {
	if b.Rel == analysis.WCP {
		return b.H[t]
	}
	return b.P[t]
}

// RuleA applies rule (a) for t's access to x under every lock t holds. It
// runs once per access no view skipped as same-epoch; edges says whether
// the joins also draw constraint-graph edges (point (iv) above).
func (b *Substrate) RuleA(t trace.Tid, x uint32, write bool, idx int32, edges bool) {
	if b.lt != nil { // HB has no rule (a): inlined, this is its whole cost
		b.ruleA(t, x, write, idx, edges)
	}
}

func (b *Substrate) ruleA(t trace.Tid, x uint32, write bool, idx int32, edges bool) {
	hook := b.hook
	if !edges {
		hook = nil
	}
	for _, m := range b.Held(t) {
		if write {
			b.lt.WriteJoin(t, m, x, &b.SyncState, idx, hook)
		} else {
			b.lt.ReadJoin(t, m, x, &b.SyncState, idx, hook)
		}
	}
}

// Weight estimates the substrate's retained metadata in 8-byte words.
func (b *Substrate) Weight() int {
	w := b.SyncState.Weight()
	if b.lt != nil {
		w += b.lt.Weight()
	}
	if b.rb != nil {
		w += b.rb.Weight()
	}
	if b.g != nil {
		w += b.g.Weight()
	}
	return w
}

// View is one optimization level's last-access metadata over a Substrate:
// the same-epoch test and the race checks, all reading the substrate's P.
type View interface {
	// Stale reports whether t's access to x falls outside the view's
	// same-epoch cases, i.e. whether rule (a) and Read or Write must run.
	Stale(t trace.Tid, x uint32, write bool) bool
	// Read and Write race-check a stale access against P (after rule (a))
	// and record it in the last-access metadata.
	Read(t trace.Tid, x uint32, loc trace.Loc, idx int32)
	Write(t trace.Tid, x uint32, loc trace.Loc, idx int32)
}

// Counter is a view whose same-epoch branch does more than skip: it counts
// the access (FTO's Table 2 counters). A Group counts the marked accesses
// of a run into these views and touches no other view state for them.
type Counter interface {
	CountMarked(reads, writes uint64)
}

// Group is one computation: a substrate advanced once per event, and every
// configured view of its relation reading it.
type Group struct {
	sub      *Substrate
	views    []View
	counters []Counter // the views that are Counters
	edged    uint32
}

// NewGroup runs views over sub. edged indexes the view whose stale accesses
// draw the graph's rule (a) edges — the Unopt view; it goes unread when sub
// builds no graph.
func NewGroup(sub *Substrate, views []View, edged int) *Group {
	g := &Group{sub: sub, views: views, edged: 1 << edged}
	for _, v := range views {
		if c, ok := v.(Counter); ok {
			g.counters = append(g.counters, c)
		}
	}
	return g
}

// HandleRun processes the next run of events for every view. A marked
// event (see analysis.SameEpoch) is same-epoch for every view, so it opens
// the event and is counted, and no view's Stale runs for it.
func (g *Group) HandleRun(evs []trace.Event, same analysis.Same) {
	var reads, writes uint64
	for i, e := range evs {
		switch {
		case !same.Has(i):
			g.Handle(e)
			continue
		case e.Op == trace.OpWrite:
			writes++
		default:
			reads++
		}
		g.sub.Begin(e.T)
	}
	for _, c := range g.counters {
		c.CountMarked(reads, writes)
	}
}

// Handle processes the next event of the trace for every view.
func (g *Group) Handle(e trace.Event) {
	idx := g.sub.Begin(e.T)
	if !e.Op.IsAccess() {
		g.sub.Sync(e, idx)
		return
	}
	write := e.Op == trace.OpWrite
	var stale uint32
	for i, v := range g.views {
		if v.Stale(e.T, e.Targ, write) {
			stale |= 1 << i
		}
	}
	if stale == 0 {
		return
	}
	g.sub.RuleA(e.T, e.Targ, write, idx, stale&g.edged != 0)
	for i, v := range g.views {
		switch {
		case stale&(1<<i) == 0:
		case write:
			v.Write(e.T, e.Targ, e.Loc, idx)
		default:
			v.Read(e.T, e.Targ, e.Loc, idx)
		}
	}
}
