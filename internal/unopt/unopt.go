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
// The per-variable last-access clocks Rx/Wx are stored unboxed, as vc.VC
// values in the variable's slot rather than pointers: inline clock headers
// instead of one heap object per variable, halving the analysis's
// per-variable allocations. A zero-value clock means "no access recorded"
// — real accesses always store a clock ≥ 1, so the ⊑ checks and same-epoch
// tests read identically on absent state.
type View struct {
	Sub  *ccs.Substrate
	vars trace.Table[accessClocks, [256]accessClocks] // pages of 12 kB, the width of SmartTrack's
	col  *report.Collector

	g      *graph.Graph                                       // Sub's graph, if any
	lastWr trace.Table[analysis.Source, [256]analysis.Source] // last write event per variable, for g
}

// accessClocks is a variable's Rx and Wx.
type accessClocks struct{ rx, wx vc.VC }

// NewView builds the unoptimized view of sub; state grows on demand as new
// ids appear in the stream.
func NewView(sub *ccs.Substrate) *View {
	return &View{Sub: sub, col: report.NewCollector(), g: sub.Graph()}
}

// Analysis is an unoptimized detector: a relation's substrate with the
// unoptimized view alone.
type Analysis struct{ View }

// NewHB builds an unoptimized HB analysis.
func NewHB() *Analysis {
	return &Analysis{*NewView(ccs.NewSubstrate(analysis.HB, false))}
}

// NewPredictive builds an unoptimized predictive analysis for relation rel
// (WCP, DC, or WDC; WDC omits rule (b), §3, and WCP composes with HB,
// §2.4). If buildGraph is set, the analysis also constructs the event
// constraint graph used by vindication (the "w/G" configurations).
func NewPredictive(rel analysis.Relation, buildGraph bool) *Analysis {
	if rel == analysis.HB {
		panic("unopt: use NewHB for HB analysis")
	}
	return &Analysis{*NewView(ccs.NewSubstrate(rel, buildGraph))}
}

// Races exposes the collector of detected races.
func (a *View) Races() *report.Collector { return a.col }

// Graph returns the constraint graph, or nil if not built.
func (a *View) Graph() *graph.Graph { return a.Sub.Graph() }

// HandleRun implements analysis.Analysis. An access the §5.1 check
// (sameEpoch) skips never leaves the loop: it is only opened, which w/G's
// graph bookkeeping needs, and which is all a marked event gets too.
func (a *Analysis) HandleRun(evs []trace.Event, same analysis.Same) {
	for i, e := range evs {
		idx := a.Sub.Begin(e.T)
		switch {
		case same.Has(i):
		case !e.Op.IsAccess():
			a.Sub.Sync(e, idx)
		default:
			t, x, write := e.T, e.Targ, e.Op == trace.OpWrite
			v, ok := a.vars.Find(x)
			if !ok {
				v = a.vars.At(x)
			}
			if v.sameEpoch(vc.Tid(t), a.Sub.P[t].Get(vc.Tid(t)), write) {
				continue
			}
			a.Sub.RuleA(t, x, write, idx, true)
			if write {
				a.Write(t, x, e.Loc, idx)
			} else {
				a.Read(t, x, e.Loc, idx)
			}
		}
	}
}

// Stale implements ccs.View: an access the §5.1 check does not skip.
func (a *View) Stale(t trace.Tid, x uint32, write bool) bool {
	v, ok := a.vars.Find(x)
	if !ok {
		v = a.vars.At(x)
	}
	return !v.sameEpoch(vc.Tid(t), a.Sub.P[t].Get(vc.Tid(t)), write)
}

// sameEpoch is §5.1's [Shared Same Epoch]-like check: has t, at clock c,
// already read (written) the variable in this epoch?
func (v *accessClocks) sameEpoch(t vc.Tid, c vc.Clock, write bool) bool {
	if write {
		return v.wx.Get(t) == c
	}
	return v.rx.Get(t) == c
}

// Read implements ccs.View.
func (a *View) Read(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	p, v := a.Sub.P[t], a.vars.At(x)
	if a.g != nil {
		a.Sub.Edge(*a.lastWr.At(x), idx, t) // last-writer hard edge
	}
	if !v.wx.Leq(p) {
		a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Write: false, Index: int(idx), PriorTid: culprit(&v.wx, p)})
	}
	v.rx.Set(vc.Tid(t), p.Get(vc.Tid(t)))
}

// Write implements ccs.View.
func (a *View) Write(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	p, v := a.Sub.P[t], a.vars.At(x)
	wx := &v.wx
	raced := false
	var prior trace.Tid = report.UnknownTid
	if !wx.Leq(p) {
		raced = true
		prior = culprit(wx, p)
	}
	if rx := &v.rx; !rx.Leq(p) {
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
		*a.lastWr.At(x) = analysis.NewSource(idx, t)
	}
}

// MetadataWeight implements analysis.Analysis: a variable slot is two
// inline clock headers of 3 words each, plus the clocks' storage, and a
// Source is one word.
func (a *Analysis) MetadataWeight() int {
	vars := a.vars.Weight(6, func(v *accessClocks) int { return v.rx.Weight() + v.wx.Weight() })
	return a.Sub.Weight() + vars + a.lastWr.Weight(1, nil)
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
		func() analysis.Analysis { return NewHB() })
	for _, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
		rel := rel
		analysis.Register(rel, analysis.Unopt, "Unopt-"+rel.String(),
			func() analysis.Analysis { return NewPredictive(rel, false) })
		analysis.Register(rel, analysis.UnoptG, "Unopt-"+rel.String()+" w/G",
			func() analysis.Analysis { return NewPredictive(rel, true) })
	}
}
