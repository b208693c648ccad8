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

// varWords is a varState's size in 8-byte words: two epochs and a pointer.
const varWords = 3

// View is FTO's last-access metadata and race check over a relation's
// substrate (see ccs.Substrate).
type View struct {
	_    report.Pad
	Sub  *ccs.Substrate
	vars trace.Table[varState, [256]varState] // pages of 6 kB, the width of SmartTrack's
	col  *report.Collector
	st   analysis.Stats
	vcs  vc.Pool // recycles retired read vector clocks
	_    report.Pad
}

// NewView builds FTO's view of sub; state grows on demand as new ids
// appear in the stream.
func NewView(sub *ccs.Substrate) *View {
	return &View{Sub: sub, col: report.NewCollector()}
}

// Analysis is an FTO-based detector for one of the four relations: the
// relation's substrate with the FTO view alone.
type Analysis struct{ View }

// New builds an FTO analysis for relation rel.
func New(rel analysis.Relation) *Analysis {
	return &Analysis{*NewView(ccs.NewSubstrate(rel, false))}
}

// Races exposes the collector of detected races.
func (a *View) Races() *report.Collector { return a.col }

// Stats returns the case counts gathered so far (Tables 2 and 12).
func (a *View) Stats() *analysis.Stats { return &a.st }

// HandleRun implements analysis.Analysis. An access varState.sameEpoch
// finds in its thread's current epoch never leaves the loop: FTO does
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
			a.Sub.RuleA(t, x, write, idx, false)
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
// Epoch], [Read Same Epoch] or [Shared Same Epoch].
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
	a.st.Held(len(a.Sub.Held(t)))
	p := a.Sub.P[t]
	tt := vc.Tid(t)
	c := p.Get(tt)
	cur := vc.E(tt, c)
	v := a.vars.At(x)
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
	v := a.vars.At(x)
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
	return a.Sub.Weight() + a.vars.Weight(varWords, func(v *varState) int { return analysis.ClockWords(v.rvc) })
}

func init() {
	for _, rel := range analysis.Relations {
		rel := rel
		analysis.Register(rel, analysis.FTO, "FTO-"+rel.String(),
			func() analysis.Analysis { return New(rel) })
	}
}
