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

// varWords is a varState's size in 8-byte words: two epochs and a pointer.
const varWords = 3

// View is FT2's last-access metadata and race check over an HB substrate
// (see ccs.Substrate).
type View struct {
	Sub  *ccs.Substrate
	vars trace.Table[varState, [256]varState] // pages of 6 kB, the width of SmartTrack's
	col  *report.Collector
}

// NewView builds FT2's view of sub; state grows on demand as new ids
// appear in the stream.
func NewView(sub *ccs.Substrate) *View {
	return &View{Sub: sub, col: report.NewCollector()}
}

// Analysis is the FT2 detector: an HB substrate with the FT2 view alone.
type Analysis struct{ View }

// New builds an FT2 analysis.
func New() *Analysis {
	return &Analysis{*NewView(ccs.NewSubstrate(analysis.HB, false))}
}

// Races exposes the collector of detected races.
func (a *View) Races() *report.Collector { return a.col }

// HandleRun implements analysis.Analysis. An access varState.sameEpoch
// finds in its thread's current epoch never leaves the loop: FT2 does
// nothing for it beyond opening the event, which is all a marked event
// gets too.
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
			if write {
				a.Write(t, x, e.Loc, idx)
			} else {
				a.Read(t, x, e.Loc, idx)
			}
		}
	}
}

// Stale implements ccs.View: an access in none of the [Same Epoch] cases.
func (a *View) Stale(t trace.Tid, x uint32, write bool) bool {
	v, ok := a.vars.Find(x)
	if !ok {
		v = a.vars.At(x)
	}
	return !v.sameEpoch(vc.Tid(t), a.Sub.P[t].Get(vc.Tid(t)), write)
}

// sameEpoch reports whether an access by t at clock c takes [Write Same
// Epoch], [Read Same Epoch] or [Read Shared Same Epoch].
func (v *varState) sameEpoch(t vc.Tid, c vc.Clock, write bool) bool {
	if write {
		return v.w == vc.E(t, c)
	}
	if v.rvc == nil {
		return v.r == vc.E(t, c)
	}
	return v.rvc.Get(t) == c
}

// Read implements ccs.View.
func (a *View) Read(t trace.Tid, x uint32, loc trace.Loc, idx int32) {
	p := a.Sub.P[t]
	tt := vc.Tid(t)
	c := p.Get(tt)
	cur := vc.E(tt, c)
	v := a.vars.At(x)
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
	v := a.vars.At(x)
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
	return a.Sub.Weight() + a.vars.Weight(varWords, func(v *varState) int { return analysis.ClockWords(v.rvc) })
}

func init() {
	analysis.Register(analysis.HB, analysis.FT2, "FT2",
		func() analysis.Analysis { return New() })
}
