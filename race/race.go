// Package race is the public API of this repository's reproduction of
// "SmartTrack: Efficient Predictive Race Detection" (Roemer, Genç & Bond,
// PLDI 2020).
//
// It exposes the full family of dynamic race detection analyses the paper
// evaluates — happens-before (FastTrack2, FTO-HB) and the predictive
// relations WCP, DC, and WDC at three optimization levels (unoptimized
// vector clocks, FTO epoch/ownership, and SmartTrack's conflicting-
// critical-section optimizations) — as streaming, online detectors, plus:
//
//   - an Engine that consumes events as they happen, fans one stream out to
//     many analyses in a single pass, and reports races online,
//   - a Builder for constructing traces programmatically,
//   - streaming trace file I/O (binary and text),
//   - a Runtime for recording events from live Go programs — and analyzing
//     them while they run when an Engine is attached, and
//   - vindication, which proves a reported race is a true predictable race
//     by constructing a verified witness reordering.
//
// The streaming quick start — detectors exist before any events do:
//
//	eng, _ := race.NewEngine(race.WithRelation(race.WDC), race.WithLevel(race.SmartTrack))
//	eng.Feed(race.Event{T: 0, Op: race.OpRead, Targ: 0})  // ... one event at a time
//	report, _ := eng.Close()
//
// The batch quick start over a built trace:
//
//	b := race.NewBuilder()
//	b.Read("T1", "x")
//	b.Acq("T1", "m").Write("T1", "y").Rel("T1", "m")
//	b.Acq("T2", "m").Read("T2", "z").Rel("T2", "m")
//	b.Write("T2", "x")
//	report, err := race.Analyze(b.Build(), race.WDC, race.SmartTrack)
//	if err != nil { ... }
//	fmt.Println(report.Dynamic()) // 1 — the predictable race HB misses
//
// No function in this package panics on user input: invalid analysis
// configurations, ill-formed event streams, and out-of-range race indices
// all surface as errors.
package race

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vindicate"

	// Register all analyses with the registry.
	_ "repro/internal/core"
	_ "repro/internal/ft"
	_ "repro/internal/fto"
)

// Trace is a totally ordered multithreaded execution trace.
type Trace = trace.Trace

// Event is one trace entry.
type Event = trace.Event

// Op is the kind of an event.
type Op = trace.Op

// Event kinds, re-exported for callers that construct Events directly
// (engine feeding without a Builder or Runtime).
const (
	OpRead          = trace.OpRead
	OpWrite         = trace.OpWrite
	OpAcquire       = trace.OpAcquire
	OpRelease       = trace.OpRelease
	OpFork          = trace.OpFork
	OpJoin          = trace.OpJoin
	OpVolatileRead  = trace.OpVolatileRead
	OpVolatileWrite = trace.OpVolatileWrite
	OpClassInit     = trace.OpClassInit
	OpClassAccess   = trace.OpClassAccess
)

// Builder constructs traces from named threads, variables, and locks.
type Builder = trace.Builder

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder { return trace.NewBuilder() }

// CheckTrace verifies trace well-formedness (locking discipline, fork/join
// lifecycle, id ranges).
func CheckTrace(tr *Trace) error { return trace.Check(tr) }

// Relation selects the partial order an analysis tracks.
type Relation = analysis.Relation

// The four relations of the paper's Table 1, strongest (fewest races
// predicted) first.
const (
	// HB is classic happens-before: sound but non-predictive.
	HB = analysis.HB
	// WCP is weak-causally-precedes (Kini et al. 2017): predictive, sound.
	WCP = analysis.WCP
	// DC is doesn't-commute (Roemer et al. 2018): predictive, weaker than
	// WCP; rarely reports false races, which vindication can rule out.
	DC = analysis.DC
	// WDC is the paper's new weak-doesn't-commute relation: DC without
	// rule (b), cheaper still; pair with vindication for soundness.
	WDC = analysis.WDC
)

// Level selects the optimization level (the paper's Table 1 columns).
type Level = analysis.Level

const (
	// Unopt is the vector-clock algorithm (Algorithm 1).
	Unopt = analysis.Unopt
	// UnoptG additionally builds the constraint graph for vindication.
	UnoptG = analysis.UnoptG
	// FT2 is FastTrack2 (HB only).
	FT2 = analysis.FT2
	// FTO applies epoch and ownership optimizations (Algorithm 2).
	FTO = analysis.FTO
	// SmartTrack adds conflicting-critical-section optimizations
	// (Algorithm 3) — the paper's contribution and the recommended level.
	SmartTrack = analysis.SmartTrack
)

// Detector is a streaming race detection analysis.
type Detector = analysis.Analysis

// Caps describes a detector's capabilities (the registry's metadata).
type Caps = analysis.Caps

// DetectorInfo describes one registered analysis: its Table 1 cell and
// capability metadata.
type DetectorInfo struct {
	Name     string
	Relation Relation
	Level    Level
	Caps     Caps
}

// New builds a detector for the given relation and optimization level,
// pre-sized for the trace's id spaces (the trace may be nil for a detector
// that will discover its id spaces from the stream). It returns an error
// for the Table 1 cells the paper marks N/A (e.g. SmartTrack-HB).
func New(tr *Trace, rel Relation, lvl Level) (Detector, error) {
	e, ok := analysis.Lookup(rel, lvl)
	if !ok {
		return nil, fmt.Errorf("race: no %v analysis at level %v (N/A in Table 1)", rel, lvl)
	}
	var spec analysis.Spec
	if tr != nil {
		spec = analysis.SpecOf(tr)
	}
	return e.New(spec), nil
}

// Analyze runs the (rel, lvl) analysis over the whole trace and returns its
// report. It is a thin wrapper over the streaming Engine: the trace goes
// through FeedTrace, with incremental well-formedness checking. Invalid
// (rel, lvl) combinations and ill-formed traces return errors.
func Analyze(tr *Trace, rel Relation, lvl Level) (*Report, error) {
	eng, err := NewEngine(WithRelation(rel), WithLevel(lvl), WithCapacityHints(HintsOf(tr)))
	if err != nil {
		return nil, err
	}
	if err := eng.FeedTrace(tr); err != nil {
		return nil, err
	}
	return eng.Close()
}

// AnalyzeByName runs a registered analysis by display name (e.g. "ST-DC"),
// through the same engine path as Analyze.
func AnalyzeByName(tr *Trace, name string) (*Report, error) {
	eng, err := NewEngine(WithAnalysisNames(name), WithCapacityHints(HintsOf(tr)))
	if err != nil {
		return nil, err
	}
	if err := eng.FeedTrace(tr); err != nil {
		return nil, err
	}
	return eng.Close()
}

// Detectors lists the names of all available analyses.
func Detectors() []string {
	var out []string
	for _, e := range analysis.All() {
		out = append(out, e.Name)
	}
	return out
}

// DetectorTable lists every available analysis with its Table 1 cell and
// capability metadata, in registration order.
func DetectorTable() []DetectorInfo {
	var out []DetectorInfo
	for _, e := range analysis.All() {
		out = append(out, DetectorInfo{Name: e.Name, Relation: e.Relation, Level: e.Level, Caps: e.Caps})
	}
	return out
}

// RaceInfo describes one detected dynamic race.
type RaceInfo struct {
	// Analysis is the display name of the detecting analysis (set for
	// engine callbacks; empty on single-analysis report listings).
	Analysis string
	// Seq is the race's per-analysis sequence number (0-based detection
	// order). It is deterministic for a given event stream, including under
	// a parallel engine, where callbacks from different analyses may
	// interleave: within one analysis, Seq always increments by one.
	Seq int
	// Var is the racing variable's id.
	Var uint32
	// Loc is the static program location of the detecting access.
	Loc uint32
	// Index is the stream index of the detecting access.
	Index int
	// Write reports whether the detecting access is a write.
	Write bool
}

// Report summarizes an analysis run. A report from a multi-analysis engine
// carries one sub-report per analysis; the top-level counters delegate to
// the first (primary) analysis.
type Report struct {
	name string
	col  *report.Collector
	subs []*Report
	vind map[int]VindicationResult // by race index; non-nil iff vindication ran
}

// Analysis returns the display name of the report's (primary) analysis.
func (r *Report) Analysis() string { return r.name }

// Analyses lists the names of all analyses in the report, in fan-out order.
func (r *Report) Analyses() []string {
	if len(r.subs) == 0 {
		return []string{r.name}
	}
	out := make([]string, len(r.subs))
	for i, s := range r.subs {
		out[i] = s.name
	}
	return out
}

// ByAnalysis returns the sub-report of the named analysis.
func (r *Report) ByAnalysis(name string) (*Report, bool) {
	if len(r.subs) == 0 {
		if name == r.name {
			return r, true
		}
		return nil, false
	}
	for _, s := range r.subs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

// Dynamic returns the total number of dynamic races detected.
func (r *Report) Dynamic() int { return r.col.Dynamic() }

// Static returns the number of statically distinct races (program
// locations), the count the paper's Table 7 reports first.
func (r *Report) Static() int { return r.col.Static() }

// Races lists all dynamic races in detection order.
func (r *Report) Races() []RaceInfo {
	var out []RaceInfo
	for i, rc := range r.col.Races() {
		out = append(out, RaceInfo{Analysis: r.name, Seq: i, Var: rc.Var, Loc: uint32(rc.Loc), Index: rc.Index, Write: rc.Write})
	}
	return out
}

// RaceVars returns the racing variables, sorted.
func (r *Report) RaceVars() []uint32 { return r.col.RaceVars() }

// Vindication returns the vindication verdict recorded for the race
// detected at stream index idx, if the report was produced by an engine
// with WithVindication (verdicts cover the first race at each racing
// program location).
func (r *Report) Vindication(idx int) (VindicationResult, bool) {
	res, ok := r.vind[idx]
	return res, ok
}

// Vindicate records a vindication verdict for the first race at each racing
// program location of every analysis in the report, replaying tr — the
// stream the report was computed from — under one graph-building vindicator
// (§4.3: a run recorded now is checked later). A vindicating engine's Close
// calls it on the stream it retained; a caller that kept the stream itself
// (a trace file written with NewTraceEncoder and read back with ReadTrace,
// a session journal) calls it after Close. Verdicts already on the report
// are replaced.
//
// tr must be the report's stream: a nil trace, a race index past its end,
// or an event at a race's index that is not that race's access (variable,
// location, read or write) is an error, and so is an ill-formed trace.
func (r *Report) Vindicate(tr *Trace) error {
	if tr == nil {
		return errors.New("race: Report.Vindicate of nil trace")
	}
	subs := r.subs
	if len(subs) == 0 {
		subs = []*Report{r}
	}
	for _, sub := range subs {
		for _, rc := range sub.col.Races() {
			if rc.Index < 0 || rc.Index >= tr.Len() {
				return fmt.Errorf("race: %s race at index %d is past the trace's %d events", sub.name, rc.Index, tr.Len())
			}
			if ev := tr.Events[rc.Index]; !ev.Op.IsAccess() || ev.Targ != rc.Var || ev.Loc != rc.Loc || (ev.Op == OpWrite) != rc.Write {
				return fmt.Errorf("race: %s race at index %d is not the trace's event there (%v)", sub.name, rc.Index, ev)
			}
		}
	}
	v, err := vindicate.New(tr)
	if err != nil {
		return fmt.Errorf("race: %w", err)
	}
	vind := make(map[int]VindicationResult)
	seenLoc := make(map[uint32]bool)
	for _, sub := range subs {
		for _, rc := range sub.col.Races() {
			if seenLoc[uint32(rc.Loc)] {
				continue
			}
			seenLoc[uint32(rc.Loc)] = true
			if _, done := vind[rc.Index]; done {
				continue
			}
			vind[rc.Index] = verdictOf(v.Race(rc.Index, vindicate.Options{}))
		}
	}
	r.vind = vind
	for _, sub := range subs {
		sub.vind = vind
	}
	return nil
}

// VindicationResult reports a witness-construction attempt.
type VindicationResult struct {
	// Vindicated is true if a verified witness reordering was found —
	// the race is certainly a true predictable race.
	Vindicated bool
	// Witness is the predicted trace ending with the racing pair.
	Witness []Event
	// Reason explains failures (the race remains unverified, not refuted).
	Reason string
}

// ErrWriteReadRace is returned by Vindicate for a known structural gap in
// the witness search: a write→read race pair cannot be vindicated, because
// the racing read carries a hard last-writer edge in the constraint graph
// that orders every conflicting write before it — the search concludes
// "graph-ordered" even though the pair races. The race is unverified, not
// refuted; detect the case with errors.Is and treat the result's Reason as
// the explanation. (Write→write and read→write pairs are unaffected.)
var ErrWriteReadRace = errors.New("race: write→read race pairs cannot be vindicated (last-writer graph edge; known witness-search gap)")

// Vindicate checks whether the race detected at trace index raceIndex is a
// true predictable race, by re-running an unoptimized WDC analysis that
// builds the event constraint graph and then searching for a verified
// witness reordering (§4.3 of the paper: a recorded run using SmartTrack
// can replay under a graph-building analysis to check its races). An
// ill-formed trace is an error wrapping the rule it breaks.
//
// When the detecting access is a read racing with earlier writes, the
// search is structurally unable to succeed and Vindicate returns
// ErrWriteReadRace alongside the (unvindicated) result instead of failing
// silently.
func Vindicate(tr *Trace, raceIndex int) (VindicationResult, error) {
	if tr == nil {
		return VindicationResult{}, fmt.Errorf("race: Vindicate of nil trace")
	}
	if raceIndex < 0 || raceIndex >= tr.Len() {
		return VindicationResult{}, fmt.Errorf("race: race index %d out of range (trace has %d events)", raceIndex, tr.Len())
	}
	v, err := vindicate.New(tr)
	if err != nil {
		return VindicationResult{}, fmt.Errorf("race: %w", err)
	}
	res := v.Race(raceIndex, vindicate.Options{})
	if res.WriteReadGap {
		return verdictOf(res), ErrWriteReadRace
	}
	return verdictOf(res), nil
}

// verdictOf is the public form of a vindicator's result.
func verdictOf(res vindicate.Result) VindicationResult {
	return VindicationResult{Vindicated: res.Vindicated, Witness: res.Witness, Reason: res.Reason}
}

// VerifyWitness independently checks a witness against the predicted-trace
// rules for the racing pair at original indices e1 < e2. An ill-formed
// trace or an out-of-range index is an error like any failed check.
func VerifyWitness(tr *Trace, witness []Event, e1, e2 int) error {
	if tr == nil {
		return fmt.Errorf("race: VerifyWitness of nil trace")
	}
	return vindicate.Verify(tr, witness, e1, e2)
}

// WriteTrace serializes a trace in the binary format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.WriteBinary(w, tr) }

// ReadTrace parses a binary trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// WriteTraceText serializes a trace in the human-readable text format.
func WriteTraceText(w io.Writer, tr *Trace) error { return trace.WriteText(w, tr) }

// ReadTraceText parses a text trace.
func ReadTraceText(r io.Reader) (*Trace, error) { return trace.ReadText(r) }

// TraceDecoder streams a binary trace file one event at a time; it
// implements EventSource for Engine.FeedSource, so arbitrarily large
// traces flow through a detector without being materialized.
type TraceDecoder = trace.Decoder

// NewTraceDecoder returns a streaming decoder for the binary trace format.
func NewTraceDecoder(r io.Reader) *TraceDecoder { return trace.NewDecoder(r) }

// TextTraceDecoder streams a text trace file one event at a time.
type TextTraceDecoder = trace.TextDecoder

// NewTextTraceDecoder returns a streaming decoder for the text format.
func NewTextTraceDecoder(r io.Reader) *TextTraceDecoder { return trace.NewTextDecoder(r) }

// TraceEncoder streams events to a binary trace file as they are produced.
type TraceEncoder = trace.Encoder

// NewTraceEncoder returns a streaming encoder writing to w. The hints
// pre-declare id-space sizes for downstream consumers (zero hints are
// fine — streaming readers widen on demand). Call Close to flush.
func NewTraceEncoder(w io.Writer, hints CapacityHints) *TraceEncoder {
	return trace.NewEncoder(w, trace.Header{
		Threads:   hints.Threads,
		Vars:      hints.Vars,
		Locks:     hints.Locks,
		Volatiles: hints.Volatiles,
		Classes:   hints.Classes,
		Events:    trace.Unbounded,
	})
}
