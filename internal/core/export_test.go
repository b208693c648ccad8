package core

import (
	"repro/internal/trace"
	"repro/internal/vc"
)

// Handle processes one event: HandleRun over a run of one.
func (a *Analysis) Handle(e trace.Event) { a.HandleRun([]trace.Event{e}, nil) }

// slot returns variable x's metadata, materializing its page.
func (a *Analysis) slot(x uint32) *stVar { return a.vars.At(x) }

// SameEpoch reports whether the access e would take one of SmartTrack's
// same-epoch cases if handled next (HandleRun's own test, stVar.sameEpoch)
// without changing the analysis.
func (a *Analysis) SameEpoch(e trace.Event) bool {
	if int(e.T) >= len(a.ht) {
		return false // a thread nothing has touched yet
	}
	cur := a.s.P[e.T].Epoch(vc.Tid(e.T))
	return a.vars.At(e.Targ).sameEpoch(cur, e.Op == trace.OpWrite)
}
