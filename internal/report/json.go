package report

import "repro/internal/trace"

// JSONRace is the wire form of one dynamic race — every field of Race, so
// a report serialized by raced and re-parsed client-side loses nothing.
type JSONRace struct {
	Seq   int    `json:"seq"`
	Var   uint32 `json:"var"`
	Loc   uint32 `json:"loc"`
	Tid   uint16 `json:"tid"`
	Prior uint16 `json:"prior"` // UnknownTid when not recoverable
	Index int    `json:"index"`
	Write bool   `json:"write"`
}

// JSONAnalysis is the wire form of one analysis's results: the paper's two
// headline counts plus the full dynamic race list in detection order.
type JSONAnalysis struct {
	Analysis string     `json:"analysis"`
	Static   int        `json:"static"`
	Dynamic  int        `json:"dynamic"`
	RaceVars []uint32   `json:"race_vars,omitempty"`
	Races    []JSONRace `json:"races,omitempty"`
}

// AnalysisJSON converts a collector's contents to the wire form. The output
// is deterministic for a given collector state (detection order for races,
// sorted order for race_vars), which is what lets raced's served reports be
// compared byte-for-byte against in-process analysis.
func AnalysisJSON(name string, col *Collector) JSONAnalysis {
	ja := JSONAnalysis{
		Analysis: name,
		Static:   col.Static(),
		Dynamic:  col.Dynamic(),
		RaceVars: col.RaceVars(),
	}
	if n := col.Dynamic(); n > 0 {
		ja.Races = make([]JSONRace, 0, n)
	}
	for i, rc := range col.Races() {
		ja.Races = append(ja.Races, JSONRace{
			Seq:   i,
			Var:   rc.Var,
			Loc:   uint32(rc.Loc),
			Tid:   uint16(rc.Tid),
			Prior: uint16(rc.PriorTid),
			Index: rc.Index,
			Write: rc.Write,
		})
	}
	return ja
}

// CollectorOf rebuilds a collector from the wire form, inverting
// AnalysisJSON: re-serializing the result yields identical bytes.
func CollectorOf(ja JSONAnalysis) *Collector {
	col := NewCollector()
	for _, r := range ja.Races {
		col.Add(Race{
			Loc:      trace.Loc(r.Loc),
			Var:      r.Var,
			Tid:      trace.Tid(r.Tid),
			Write:    r.Write,
			Index:    r.Index,
			PriorTid: trace.Tid(r.Prior),
		})
	}
	return col
}
