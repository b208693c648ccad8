package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/workload"
	"repro/race"
)

// oracle holds what a pass-session's report must equal. Both halves are
// computed in setup, away from the path a workload measures: the static
// race count per relation is the generator's own seeding, and the reference
// document comes from one batch race.AnalyzeByName per analysis.
type oracle struct {
	names  []string          // analyses the workload runs, fan-out order
	static map[string]int    // analysis → races the generator seeded for its relation
	want   map[string][]byte // analysis → reference report JSON
}

func newOracle(prog workload.Program, tr *race.Trace, names []string) (*oracle, error) {
	o := &oracle{names: names, static: map[string]int{}, want: map[string][]byte{}}
	for _, name := range names {
		entry, ok := analysis.ByName(name)
		if !ok {
			return nil, fmt.Errorf("oracle: unknown analysis %q", name)
		}
		o.static[name] = prog.ExpectedStatic(entry.Relation.String())
		rep, err := race.AnalyzeByName(tr, name)
		if err != nil {
			return nil, fmt.Errorf("oracle: reference %s: %w", name, err)
		}
		if o.want[name], err = json.Marshal(rep); err != nil {
			return nil, fmt.Errorf("oracle: reference %s: %w", name, err)
		}
	}
	return o, nil
}

// check verifies one session's report: every analysis it ran found exactly
// the seeded static races and serialises byte-for-byte as the reference.
func (o *oracle) check(rep *race.Report) error {
	if got := rep.Analyses(); len(got) != len(o.names) {
		return fmt.Errorf("oracle: report has analyses %v, want %v", got, o.names)
	}
	for _, name := range o.names {
		sub, ok := rep.ByAnalysis(name)
		if !ok {
			return fmt.Errorf("oracle: report lacks analysis %s", name)
		}
		if sub.Static() != o.static[name] {
			return fmt.Errorf("oracle: %s reports %d static races, generator seeded %d", name, sub.Static(), o.static[name])
		}
		got, err := json.Marshal(sub)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", name, err)
		}
		if !bytes.Equal(got, o.want[name]) {
			return fmt.Errorf("oracle: %s report differs from the batch reference (%d vs %d bytes)", name, len(got), len(o.want[name]))
		}
	}
	return nil
}

// checkJSON verifies a report that arrived as wire bytes (CloseJSON): the
// bytes themselves must equal the reference, and the document they decode
// to must pass check.
func (o *oracle) checkJSON(doc []byte) error {
	if len(o.names) == 1 && !bytes.Equal(doc, o.want[o.names[0]]) {
		return fmt.Errorf("oracle: wire report differs from the batch reference (%d vs %d bytes)", len(doc), len(o.want[o.names[0]]))
	}
	rep, err := race.ReportFromJSON(doc)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return o.check(rep)
}
