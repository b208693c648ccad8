// Package fto implements Algorithm 2: the FastTrack-Ownership (FTO)
// analyses of Wood et al. 2017, applied both to HB (FTO-HB, the paper's
// representative FastTrack-family baseline) and — for the first time in the
// paper — to the predictive relations WCP, DC, and WDC (FTO-WCP, FTO-DC,
// FTO-WDC).
//
// Ownership adds the [Read Owned], [Read Shared Owned], and [Write Owned]
// cases, which skip race checks when the current thread already owns the
// last-access metadata. The predictive variants additionally apply rule (a)
// joins (conflicting critical sections, via ccs.LockTables) and rule (b)
// (via ccs.RuleB; omitted for WDC) before the ownership case analysis.
package fto

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
	rvc *vc.VC   // read vector clock when shared; nil in epoch mode
}

// View is FTO's last-access metadata and race check over a relation's
// substrate (see ccs.Substrate).
type View struct {
	_    report.Pad
	Sub  *ccs.Substrate
	vars []varState
	col  *report.Collector
	st   analysis.Stats
	vcs  vc.Pool // recycles retired read vector clocks
	_    report.Pad
}

// NewView builds FTO's view of sub from capacity hints; state grows on
// demand as new ids appear in the stream.
func NewView(sub *ccs.Substrate, spec analysis.Spec) *View {
	return &View{Sub: sub, vars: make([]varState, spec.Vars), col: report.NewCollector()}
}

// Analysis is an FTO-based detector for one of the four relations: the
// relation's substrate with the FTO view alone.
type Analysis struct{ View }

// New builds an FTO analysis for relation rel from capacity hints.
func New(rel analysis.Relation, spec analysis.Spec) *Analysis {
	return &Analysis{*NewView(ccs.NewSubstrate(rel, spec, false), spec)}
}

// Name implements analysis.Analysis.
func (a *Analysis) Name() string { return "FTO-" + a.Sub.Rel.String() }

// Races exposes the collector of detected races.
func (a *View) Races() *report.Collector { return a.col }

// Stats returns the case counts gathered so far (Tables 2 and 12).
func (a *View) Stats() *analysis.Stats { return &a.st }

// Handle implements analysis.Analysis.
func (a *Analysis) Handle(e trace.Event) {
	idx := a.Sub.Begin(e.T)
	switch e.Op {
	case trace.OpRead:
		if a.Stale(e.T, e.Targ, false) {
			a.Sub.RuleA(e.T, e.Targ, false, idx, false)
			a.Read(e.T, e.Targ, e.Loc, idx)
		}
	case trace.OpWrite:
		if a.Stale(e.T, e.Targ, true) {
			a.Sub.RuleA(e.T, e.Targ, true, idx, false)
			a.Write(e.T, e.Targ, e.Loc, idx)
		}
	default:
		a.Sub.Sync(e, idx)
	}
}

// HandleRun implements analysis.Analysis. FTO's same-epoch branch does
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
	return v.rvc.Get(tt) != c // [Shared Same Epoch]
}

// Read implements ccs.View.
func (a *View) Read(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	a.st.Held(len(a.Sub.Held(t)))
	p := a.Sub.P[t]
	tt := vc.Tid(t)
	c := p.Get(tt)
	cur := vc.E(tt, c)
	v := &a.vars[x]
	if v.rvc == nil {
		switch {
		case v.r != vc.None && v.r.Tid() == tt: // [Read Owned]
			a.st.ReadOwned++
			v.r = cur
		case vc.EpochLeq(v.r, p): // [Read Exclusive] (covers first access)
			a.st.ReadExclusive++
			v.r = cur
		default: // [Read Share]
			a.st.ReadShare++
			if !vc.EpochLeq(v.w, p) {
				a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Index: int(idx), PriorTid: trace.Tid(v.w.Tid())})
			}
			v.rvc = a.vcs.Get(a.Sub.Threads())
			v.rvc.Set(v.r.Tid(), v.r.Clock())
			v.rvc.Set(tt, c)
			v.r = vc.None
		}
		return
	}
	if v.rvc.Get(tt) != 0 { // [Read Shared Owned]
		a.st.ReadSharedOwned++
		v.rvc.Set(tt, c)
		return
	}
	// [Read Shared]
	a.st.ReadShared++
	if !vc.EpochLeq(v.w, p) {
		a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Index: int(idx), PriorTid: trace.Tid(v.w.Tid())})
	}
	v.rvc.Set(tt, c)
}

// Write implements ccs.View.
func (a *View) Write(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	a.st.Held(len(a.Sub.Held(t)))
	p := a.Sub.P[t]
	tt := vc.Tid(t)
	cur := vc.E(tt, p.Get(tt))
	v := &a.vars[x]
	if v.rvc == nil {
		if v.r == vc.None || v.r.Tid() != tt { // [Write Exclusive]
			a.st.WriteExclusive++
			if !vc.EpochLeq(v.r, p) {
				a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Write: true, Index: int(idx), PriorTid: trace.Tid(v.r.Tid())})
			}
		} else { // [Write Owned]: skip the race check
			a.st.WriteOwned++
		}
	} else { // [Write Shared]
		a.st.WriteShared++
		if !v.rvc.Leq(p) {
			a.col.Add(report.Race{Loc: loc, Var: x, Tid: t, Write: true, Index: int(idx), PriorTid: report.UnknownTid})
		}
	}
	v.w = cur
	v.r = cur
	if v.rvc != nil {
		a.vcs.Put(v.rvc) // the write retires the shared read clock
		v.rvc = nil
	}
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
	for _, rel := range analysis.Relations {
		rel := rel
		analysis.Register(rel, analysis.FTO, "FTO-"+rel.String(),
			func(spec analysis.Spec) analysis.Analysis { return New(rel, spec) })
	}
}
