package core

import (
	"repro/internal/trace"
	"repro/internal/vc"
)

// SameEpoch reports whether the access e would take one of SmartTrack's
// same-epoch cases if handled next — the tests at the top of read and
// write, as written there — without changing the analysis.
func (a *Analysis) SameEpoch(e trace.Event) bool {
	pi := int(e.Targ >> varPageBits)
	if int(e.T) >= len(a.ht) || pi >= len(a.pages) || a.pages[pi] == nil {
		return false // a thread or a variable page nothing has touched yet
	}
	v := &a.pages[pi][e.Targ%varPageSize]
	tt := vc.Tid(e.T)
	cur := a.s.P[e.T].Epoch(tt)
	if e.Op == trace.OpWrite {
		return v.w == cur // [Write Same Epoch]
	}
	return v.sameRead(cur) // [Read/Shared Same Epoch]
}
