// Package analysis defines the common interface implemented by every race
// detection analysis in this repository, plus the relation/optimization
// taxonomy of the paper's Table 1 and a registry of all analysis
// constructors.
package analysis

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/trace"
)

// Relation is the partial order an analysis tracks.
type Relation int

// The four relations of Table 1, strongest first.
const (
	HB Relation = iota
	WCP
	DC
	WDC
)

func (r Relation) String() string {
	switch r {
	case HB:
		return "HB"
	case WCP:
		return "WCP"
	case DC:
		return "DC"
	case WDC:
		return "WDC"
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Relations lists all relations in Table 1 order (top to bottom).
var Relations = []Relation{HB, WCP, DC, WDC}

// Level is the optimization level of an analysis (Table 1's columns).
type Level int

const (
	// UnoptG is an unoptimized vector-clock analysis that also builds the
	// event constraint graph used by vindication ("Unopt w/ G").
	UnoptG Level = iota
	// Unopt is an unoptimized vector-clock analysis without graph
	// construction ("Unopt w/o G").
	Unopt
	// FT2 is the FastTrack2 epoch algorithm (HB only).
	FT2
	// FTO applies FastTrack-Ownership epoch optimizations (Algorithm 2).
	FTO
	// SmartTrack adds the conflicting-critical-section optimizations
	// (Algorithm 3).
	SmartTrack
)

func (l Level) String() string {
	switch l {
	case UnoptG:
		return "Unopt w/G"
	case Unopt:
		return "Unopt"
	case FT2:
		return "FT2"
	case FTO:
		return "FTO"
	case SmartTrack:
		return "ST"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Analysis is a dynamic race detection analysis processing events in trace
// order. Implementations keep all state internal and are not safe for
// concurrent use; the public race.Runtime linearizes for them.
type Analysis interface {
	// Name identifies the analysis, e.g. "SmartTrack-DC".
	Name() string
	// Handle processes the next event of the trace.
	Handle(e trace.Event)
	// HandleRun processes the next run of events, as Handle would one at a
	// time. An event same marks (see SameEpoch) is only opened, which is
	// all the analysis's own same-epoch branch does; a nil same marks
	// nothing.
	HandleRun(evs []trace.Event, same Same)
	// Races exposes the collector of detected races.
	Races() *report.Collector
	// MetadataWeight estimates retained analysis metadata in 8-byte words,
	// used for the paper's memory-usage comparisons.
	MetadataWeight() int
}

// Run feeds every event of tr to a in order and returns a's collector.
func Run(a Analysis, tr *trace.Trace) *report.Collector {
	for _, e := range tr.Events {
		a.Handle(e)
	}
	return a.Races()
}

// Spec carries id-space capacity hints for constructing an analysis. Every
// field is a hint, not a bound: analyses grow their state tables on demand,
// so a zero Spec is always valid — it just means every table starts empty
// and grows as ids appear in the event stream. Constructing from a complete
// trace (SpecOf) pre-sizes the tables and avoids growth reallocations.
type Spec struct {
	// Threads, Vars, Locks, Volatiles, Classes hint the number of distinct
	// ids of each kind the stream will use.
	Threads   int
	Vars      int
	Locks     int
	Volatiles int
	Classes   int
	// Events hints the total stream length (constraint-graph pre-sizing).
	Events int
}

// SpecOf derives exact capacity hints from a complete trace.
func SpecOf(tr *trace.Trace) Spec {
	return Spec{
		Threads:   tr.Threads,
		Vars:      tr.Vars,
		Locks:     tr.Locks,
		Volatiles: tr.Volatiles,
		Classes:   tr.Classes,
		Events:    tr.Len(),
	}
}

// Constructor builds a fresh analysis instance from capacity hints. The
// instance exists before any events do and consumes its stream incrementally
// through Analysis.Handle or Analysis.HandleRun.
type Constructor func(spec Spec) Analysis

// Caps describes what a registered analysis can do — the capability
// metadata the race.Engine and tooling use to pick and explain detectors.
type Caps struct {
	// Predictive analyses detect predictable races HB analysis misses
	// (every relation except HB).
	Predictive bool
	// NeedsVindication marks relations that may report false races (DC and
	// WDC); vindication confirms or leaves individual reports unverified.
	NeedsVindication bool
	// BuildsGraph marks analyses that construct the event constraint graph
	// vindication consumes (the "w/G" configurations).
	BuildsGraph bool
	// EpochOptimized marks analyses using epoch/ownership last-access
	// metadata (FT2, FTO, SmartTrack) rather than full vector clocks.
	EpochOptimized bool
}

// CapsFor derives the capability metadata of a Table 1 cell.
func CapsFor(rel Relation, lvl Level) Caps {
	return Caps{
		Predictive:       rel != HB,
		NeedsVindication: rel == DC || rel == WDC,
		BuildsGraph:      lvl == UnoptG,
		EpochOptimized:   lvl == FT2 || lvl == FTO || lvl == SmartTrack,
	}
}

// Entry describes one cell of Table 1.
type Entry struct {
	Relation Relation
	Level    Level
	Name     string
	New      Constructor
	Caps     Caps
}

// NewFor builds the analysis pre-sized for a complete trace's id spaces.
func (e Entry) NewFor(tr *trace.Trace) Analysis { return e.New(SpecOf(tr)) }

var registry []Entry

// Register adds an analysis to the global registry. Analysis packages call
// it from init; the race.Engine, cmd/racebench, and the cross-analysis
// property tests iterate the registry. Capability metadata is derived from
// the cell's position in Table 1.
func Register(rel Relation, lvl Level, name string, ctor Constructor) {
	registry = append(registry, Entry{
		Relation: rel, Level: lvl, Name: name, New: ctor,
		Caps: CapsFor(rel, lvl),
	})
}

// All returns every registered analysis.
func All() []Entry { return append([]Entry(nil), registry...) }

// Lookup finds the analysis for a Table 1 cell; ok is false for the cells
// the paper marks N/A (e.g. SmartTrack-HB).
func Lookup(rel Relation, lvl Level) (Entry, bool) {
	for _, e := range registry {
		if e.Relation == rel && e.Level == lvl {
			return e, true
		}
	}
	return Entry{}, false
}

// EnsureLen grows *s to at least n elements, filling with zero values.
// Analyses use it to grow per-id state tables as new ids appear in a
// stream; amortized-doubling keeps per-event growth O(1).
func EnsureLen[T any](s *[]T, n int) {
	if n <= len(*s) {
		return
	}
	if n <= cap(*s) {
		*s = (*s)[:n]
		return
	}
	grown := make([]T, n, 2*n)
	copy(grown, *s)
	*s = grown
}

// ByName finds an analysis by its display name.
func ByName(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
