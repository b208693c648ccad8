// Package ft implements FT2, the FastTrack2 epoch-based happens-before
// analysis (Flanagan & Freund 2017), the paper's primary HB baseline.
//
// Per §5.4's description of the paper's own FT2 variant, this
// implementation updates last-access metadata after every event even when a
// race is detected, never stops analyzing a variable, and counts every
// race.
package ft

import (
	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
)

type varState struct {
	w   vc.Epoch
	r   vc.Epoch // valid when rvc == nil
	rvc *vc.VC   // read-shared vector clock, nil in epoch mode
}

// View is FT2's last-access metadata and race check over an HB substrate
// (see ccs.Substrate).
type View struct {
	Sub  *ccs.Substrate
	vars []varState
	col  *report.Collector
}

// NewView builds FT2's view of sub from capacity hints; state grows on
// demand as new ids appear in the stream.
func NewView(sub *ccs.Substrate, spec analysis.Spec) *View {
	return &View{Sub: sub, vars: make([]varState, spec.Vars), col: report.NewCollector()}
}

// Analysis is the FT2 detector: an HB substrate with the FT2 view alone.
type Analysis struct{ View }

// New builds an FT2 analysis from capacity hints.
func New(spec analysis.Spec) *Analysis {
	return &Analysis{*NewView(ccs.NewSubstrate(analysis.HB, spec, false), spec)}
}

// Races exposes the collector of detected races.
func (a *View) Races() *report.Collector { return a.col }

// Handle processes the next event of the trace.
func (a *Analysis) Handle(e trace.Event) {
	idx := a.Sub.Begin(e.T)
	switch e.Op {
	case trace.OpRead:
		if a.Stale(e.T, e.Targ, false) {
			a.Read(e.T, e.Targ, e.Loc, idx)
		}
	case trace.OpWrite:
		if a.Stale(e.T, e.Targ, true) {
			a.Write(e.T, e.Targ, e.Loc, idx)
		}
	default:
		a.Sub.Sync(e, idx)
	}
}

// HandleRun implements analysis.Analysis. FT2's same-epoch branch does
// nothing beyond opening the event.
func (a *Analysis) HandleRun(evs []trace.Event, same analysis.Same) {
	for i, e := range evs {
		if same.Has(i) {
			a.Sub.Begin(e.T)
		} else {
			a.Handle(e)
		}
	}
}

// Stale implements ccs.View: the [Same Epoch] cases.
func (a *View) Stale(t trace.Tid, x uint32, write bool) bool {
	tt := vc.Tid(t)
	c := a.Sub.P[t].Get(tt)
	analysis.EnsureLen(&a.vars, int(x)+1)
	v := &a.vars[x]
	if write {
		return v.w != vc.E(tt, c) // [Write Same Epoch]
	}
	if v.rvc == nil {
		return v.r != vc.E(tt, c) // [Read Same Epoch]
	}
	return v.rvc.Get(tt) != c // [Read Shared Same Epoch]
}

// Read implements ccs.View.
func (a *View) Read(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	p := a.Sub.P[t]
	tt := vc.Tid(t)
	c := p.Get(tt)
	cur := vc.E(tt, c)
	v := &a.vars[x]
	if !vc.EpochLeq(v.w, p) { // write–read race check
		a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Index: int(idx), PriorTid: trace.Tid(v.w.Tid())})
	}
	switch {
	case v.rvc != nil: // [Read Shared]
		v.rvc.Set(tt, c)
	case vc.EpochLeq(v.r, p): // [Read Exclusive]
		v.r = cur
	default: // [Read Share] — upgrade to a read vector clock
		v.rvc = vc.New(0)
		v.rvc.Set(v.r.Tid(), v.r.Clock())
		v.rvc.Set(tt, c)
		v.r = vc.None
	}
}

// Write implements ccs.View.
func (a *View) Write(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	p := a.Sub.P[t]
	tt := vc.Tid(t)
	cur := vc.E(tt, p.Get(tt))
	v := &a.vars[x]
	raced := false
	var prior trace.Tid = report.UnknownTid
	if !vc.EpochLeq(v.w, p) { // write–write race check
		raced = true
		prior = trace.Tid(v.w.Tid())
	}
	if v.rvc == nil { // [Write Exclusive]
		if !vc.EpochLeq(v.r, p) {
			if !raced {
				prior = trace.Tid(v.r.Tid())
			}
			raced = true
		}
	} else { // [Write Shared]
		if !v.rvc.Leq(p) {
			raced = true
		}
		v.rvc = nil // FastTrack collapses read state after a shared write
		v.r = vc.None
	}
	if raced {
		a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Write: true, Index: int(idx), PriorTid: prior})
	}
	v.w = cur
}

// MetadataWeight implements analysis.Analysis.
func (a *Analysis) MetadataWeight() int {
	w := a.Sub.Weight()
	for i := range a.vars {
		w += 2
		if a.vars[i].rvc != nil {
			w += a.vars[i].rvc.Weight() + 3
		}
	}
	return w
}

func init() {
	analysis.Register(analysis.HB, analysis.FT2, "FT2",
		func(spec analysis.Spec) analysis.Analysis { return New(spec) })
}
