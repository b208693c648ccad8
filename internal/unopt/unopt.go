// Package unopt implements the paper's unoptimized vector-clock analyses:
// classic HB analysis and Algorithm 1's WCP, DC, and WDC analyses, with an
// optional constraint-graph hook (the "Unopt w/G" configurations).
//
// Last-access metadata (Rx, Wx) are full vector clocks storing each
// thread's local clock at its last read/write; rule (a) and rule (b) use
// the machinery in package ccs. Per §5.1, the implementations perform a
// [Shared Same Epoch]-like check at reads and writes and increment the
// thread's clock at acquires as well as releases.
package unopt

import (
	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/graph"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
)

// View is the unoptimized last-access metadata and race check over a
// relation's substrate (see ccs.Substrate): classic vector-clock analysis
// for HB, Algorithm 1 for WCP, DC and WDC. When the substrate builds the
// constraint graph, the view adds its last-writer edges; the races it
// finds are the same either way, so one view reports for both "Unopt-X" and
// "Unopt-X w/G".
//
// The per-variable last-access clocks rx/wx are stored unboxed ([]vc.VC
// values rather than []*vc.VC): one slice of inline clock headers instead
// of a pointer array plus one heap object per variable, halving the
// analysis's per-variable allocations. A zero-value clock means "no access
// recorded" — real accesses always store a clock ≥ 1, so the ⊑ checks and
// same-epoch tests read identically on absent state.
type View struct {
	Sub    *ccs.Substrate
	rx, wx []vc.VC
	col    *report.Collector

	g         *graph.Graph // Sub's graph, if any
	lastWrIdx []int32      // last write event per variable, for g
}

// NewView builds the unoptimized view of sub from capacity hints; state
// grows on demand as new ids appear in the stream.
func NewView(sub *ccs.Substrate, spec analysis.Spec) *View {
	v := &View{
		Sub: sub,
		rx:  make([]vc.VC, spec.Vars),
		wx:  make([]vc.VC, spec.Vars),
		col: report.NewCollector(),
		g:   sub.Graph(),
	}
	if v.g != nil {
		analysis.GrowNeg(&v.lastWrIdx, spec.Vars)
	}
	return v
}

// Analysis is an unoptimized detector: a relation's substrate with the
// unoptimized view alone.
type Analysis struct{ View }

// NewHB builds an unoptimized HB analysis from capacity hints.
func NewHB(spec analysis.Spec) *Analysis {
	return &Analysis{*NewView(ccs.NewSubstrate(analysis.HB, spec, false), spec)}
}

// NewPredictive builds an unoptimized predictive analysis for relation rel
// (WCP, DC, or WDC; WDC omits rule (b), §3, and WCP composes with HB, §2.4)
// from capacity hints. If buildGraph is set, the analysis also constructs
// the event constraint graph used by vindication (the "w/G"
// configurations).
func NewPredictive(rel analysis.Relation, spec analysis.Spec, buildGraph bool) *Analysis {
	if rel == analysis.HB {
		panic("unopt: use NewHB for HB analysis")
	}
	return &Analysis{*NewView(ccs.NewSubstrate(rel, spec, buildGraph), spec)}
}

// Name implements analysis.Analysis.
func (a *Analysis) Name() string {
	if a.g != nil {
		return "Unopt-" + a.Sub.Rel.String() + " w/G"
	}
	return "Unopt-" + a.Sub.Rel.String()
}

// Races exposes the collector of detected races.
func (a *View) Races() *report.Collector { return a.col }

// Graph returns the constraint graph, or nil if not built.
func (a *View) Graph() *graph.Graph { return a.Sub.Graph() }

// Handle implements analysis.Analysis.
func (a *Analysis) Handle(e trace.Event) {
	idx := a.Sub.Begin(e.T)
	switch e.Op {
	case trace.OpRead:
		if a.Stale(e.T, e.Targ, false) {
			a.Sub.RuleA(e.T, e.Targ, false, idx, true)
			a.Read(e.T, e.Targ, e.Loc, idx)
		}
	case trace.OpWrite:
		if a.Stale(e.T, e.Targ, true) {
			a.Sub.RuleA(e.T, e.Targ, true, idx, true)
			a.Write(e.T, e.Targ, e.Loc, idx)
		}
	default:
		a.Sub.Sync(e, idx)
	}
}

// HandleRun implements analysis.Analysis. The §5.1 check's skip does
// nothing beyond opening the event, which w/G's graph bookkeeping needs.
func (a *Analysis) HandleRun(evs []trace.Event, same analysis.Same) {
	for i, e := range evs {
		if same.Has(i) {
			a.Sub.Begin(e.T)
		} else {
			a.Handle(e)
		}
	}
}

// Stale implements ccs.View: per §5.1, a [Shared Same Epoch]-like check —
// has t already read (written) x in this epoch?
func (a *View) Stale(t trace.Tid, x uint32, write bool) bool {
	c := a.Sub.P[t].Get(vc.Tid(t))
	if int(x) >= len(a.wx) {
		a.growVars(int(x) + 1)
	}
	if write {
		return a.wx[x].Get(vc.Tid(t)) != c
	}
	return a.rx[x].Get(vc.Tid(t)) != c
}

// growVars extends the per-variable tables to cover variable ids < n.
func (a *View) growVars(n int) {
	analysis.EnsureLen(&a.rx, n)
	analysis.EnsureLen(&a.wx, n)
	if a.g != nil {
		analysis.GrowNeg(&a.lastWrIdx, n)
	}
}

// Read implements ccs.View.
func (a *View) Read(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	p := a.Sub.P[t]
	if a.g != nil && a.lastWrIdx[x] >= 0 {
		a.g.Edge(a.lastWrIdx[x], idx) // last-writer hard edge
	}
	if wx := &a.wx[x]; !wx.Leq(p) {
		a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Write: false, Index: int(idx), PriorTid: culprit(wx, p)})
	}
	a.rx[x].Set(vc.Tid(t), p.Get(vc.Tid(t)))
}

// Write implements ccs.View.
func (a *View) Write(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	p := a.Sub.P[t]
	wx := &a.wx[x]
	raced := false
	var prior trace.Tid = report.UnknownTid
	if !wx.Leq(p) {
		raced = true
		prior = culprit(wx, p)
	}
	if rx := &a.rx[x]; !rx.Leq(p) {
		if !raced {
			prior = culprit(rx, p)
		}
		raced = true
	}
	if raced {
		a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Write: true, Index: int(idx), PriorTid: prior})
	}
	wx.Set(vc.Tid(t), p.Get(vc.Tid(t)))
	if a.g != nil {
		a.lastWrIdx[x] = idx
	}
}

// MetadataWeight implements analysis.Analysis.
func (a *Analysis) MetadataWeight() int {
	return a.Sub.Weight() + accessClockWeight(a.rx) + accessClockWeight(a.wx)
}

// accessClockWeight totals the footprint of an unboxed last-access clock
// table: 3 words of inline header per variable slot plus the materialized
// clock storage.
func accessClockWeight(clocks []vc.VC) int {
	w := 3 * len(clocks)
	for i := range clocks {
		w += clocks[i].Weight()
	}
	return w
}

// culprit returns the thread of some component of x not ordered before p,
// for race-report diagnostics.
func culprit(x, p *vc.VC) trace.Tid {
	for u := 0; u < x.Len(); u++ {
		if x.Get(vc.Tid(u)) > p.Get(vc.Tid(u)) {
			return trace.Tid(u)
		}
	}
	return report.UnknownTid
}

func init() {
	analysis.Register(analysis.HB, analysis.Unopt, "Unopt-HB",
		func(spec analysis.Spec) analysis.Analysis { return NewHB(spec) })
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		rel := rel
		analysis.Register(rel, analysis.Unopt, "Unopt-"+rel.String(),
			func(spec analysis.Spec) analysis.Analysis { return NewPredictive(rel, spec, false) })
		analysis.Register(rel, analysis.UnoptG, "Unopt-"+rel.String()+" w/G",
			func(spec analysis.Spec) analysis.Analysis { return NewPredictive(rel, spec, true) })
	}
}
