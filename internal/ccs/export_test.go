package ccs

import (
	"reflect"

	"repro/internal/analysis"
	"repro/internal/vc"
)

// SelfP returns WCP's exportable self-knowledge of thread u in s (the
// unexported selfP of analysis.SyncState), 0 under the other relations, so
// that the reference differential can compare it after every event beside
// P and H: a join that under-reports it changes neither until a later
// release carries it across a lock edge.
func SelfP(s *analysis.SyncState, u int) vc.Clock {
	f := reflect.ValueOf(s).Elem().FieldByName("selfP")
	if u >= f.Len() {
		return 0
	}
	return vc.Clock(f.Index(u).Uint())
}
