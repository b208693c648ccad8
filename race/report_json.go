package race

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/report"
	"repro/internal/trace"
)

// This file gives Report a canonical JSON form — the document raced serves
// from GET /sessions/{id}/races, journals as report.json and returns in
// the wire protocol's Report frame — and the inverse ReportFromJSON used by
// the remote client. The encoding is deterministic (detection order for
// races, encoding/json's sorted keys for the vindication map) and
// lossless: marshal ∘ unmarshal ∘ marshal is the identity on bytes, which
// is what makes "remote report == in-process report" checkable
// byte-for-byte.

// jsonEvent is the wire form of one trace event (witness reorderings).
type jsonEvent struct {
	T    uint16 `json:"t"`
	Op   uint8  `json:"op"`
	Targ uint32 `json:"targ"`
	Loc  uint32 `json:"loc"`
}

// jsonVindication is the wire form of one vindication verdict.
type jsonVindication struct {
	Vindicated bool        `json:"vindicated"`
	Reason     string      `json:"reason,omitempty"`
	Witness    []jsonEvent `json:"witness,omitempty"`
}

// jsonReport is the full report document.
type jsonReport struct {
	Analysis     string                     `json:"analysis"`
	Analyses     []report.JSONAnalysis      `json:"analyses"`
	Vindications map[string]jsonVindication `json:"vindications,omitempty"`
}

// MarshalJSON implements json.Marshaler: the report document raced serves.
// raced calls it directly, once per close: json.Marshal of a report would
// scan and copy the document once more, to compact what this returns.
func (r *Report) MarshalJSON() ([]byte, error) {
	doc := jsonReport{Analysis: r.name}
	for _, sub := range r.reports() {
		doc.Analyses = append(doc.Analyses, report.AnalysisJSON(sub.name, sub.col))
	}
	if r.vind != nil {
		doc.Vindications = make(map[string]jsonVindication, len(r.vind))
		for idx, res := range r.vind {
			jv := jsonVindication{Vindicated: res.Vindicated, Reason: res.Reason}
			for _, e := range res.Witness {
				jv.Witness = append(jv.Witness, jsonEvent{T: uint16(e.T), Op: uint8(e.Op), Targ: e.Targ, Loc: uint32(e.Loc)})
			}
			doc.Vindications[strconv.Itoa(idx)] = jv
		}
	}
	return json.Marshal(doc)
}

// ReportFromJSON reconstructs a Report from its canonical JSON form. The
// result is a full-fidelity stand-in for the original: counts, race lists,
// sub-reports, and vindication verdicts all read identically, and
// re-marshaling yields the same bytes.
func ReportFromJSON(data []byte) (*Report, error) {
	var doc jsonReport
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("race: parsing report JSON: %w", err)
	}
	if len(doc.Analyses) == 0 {
		return nil, fmt.Errorf("race: report JSON has no analyses")
	}
	var vind map[int]VindicationResult
	if len(doc.Vindications) > 0 {
		vind = make(map[int]VindicationResult, len(doc.Vindications))
		for key, jv := range doc.Vindications {
			idx, err := strconv.Atoi(key)
			if err != nil {
				return nil, fmt.Errorf("race: report JSON vindication key %q: %w", key, err)
			}
			res := VindicationResult{Vindicated: jv.Vindicated, Reason: jv.Reason}
			for _, e := range jv.Witness {
				if !trace.Op(e.Op).Valid() {
					return nil, fmt.Errorf("race: report JSON witness has invalid op %d", e.Op)
				}
				res.Witness = append(res.Witness, Event{T: Tid(e.T), Op: Op(e.Op), Targ: e.Targ, Loc: trace.Loc(e.Loc)})
			}
			vind[idx] = res
		}
	}
	subs := make([]*Report, len(doc.Analyses))
	for i, ja := range doc.Analyses {
		subs[i] = &Report{name: ja.Analysis, col: report.CollectorOf(ja), vind: vind}
	}
	return &Report{name: subs[0].name, col: subs[0].col, subs: subs, vind: vind}, nil
}
