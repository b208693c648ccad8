package server

import (
	"fmt"

	"repro/race"
)

// SessionConfig is a client's requested engine configuration — the payload
// of the wire protocol's Hello frame and of POST /sessions.
type SessionConfig struct {
	// Analyses lists Table 1 analyses by display name (see race.Detectors).
	// Empty runs the engine's default, SmartTrack-WDC.
	Analyses []string `json:"analyses,omitempty"`
	// Vindicate adds vindication verdicts to the report at close. A durable
	// session replays its journal for them; a memory-only one's engine
	// retains the stream (memory proportional to the stream).
	Vindicate bool `json:"vindicate,omitempty"`
	// Parallelism and BatchSize configure the engine's worker pipeline
	// (race.WithParallelism / race.WithBatchSize).
	Parallelism int `json:"parallelism,omitempty"`
	BatchSize   int `json:"batch_size,omitempty"`
	// Hints pre-size detector state for the session's expected id spaces.
	Hints race.CapacityHints `json:"hints,omitzero"`
}

// engineSink is the slice of race.EventSink a session drives (plus Abort,
// the discard path); *race.Engine implements it, and tests substitute
// poisoned sinks through Config.newSink.
type engineSink interface {
	FeedBatch([]race.Event) error
	Sync() error
	Close() (*race.Report, error)
	Abort()
}

// Caps on client-supplied capacity hints. Hints only pre-size state —
// engines grow on demand past them — so clamping costs a tenant nothing,
// while an unclamped hint would let one Hello frame pre-allocate
// gigabytes (or panic on a negative count) in the shared server.
const (
	maxHintThreads = 1 << 16 // Tid is uint16; larger is meaningless
	maxHintIDs     = 1 << 20 // vars / locks / volatiles / classes
	maxHintEvents  = 1 << 24 // constraint-graph pre-sizing
)

// clampHints bounds every client-supplied pre-sizing hint.
func clampHints(h race.CapacityHints) race.CapacityHints {
	clamp := func(v, max int) int {
		if v < 0 {
			return 0
		}
		return min(v, max)
	}
	return race.CapacityHints{
		Threads:   clamp(h.Threads, maxHintThreads),
		Vars:      clamp(h.Vars, maxHintIDs),
		Locks:     clamp(h.Locks, maxHintIDs),
		Volatiles: clamp(h.Volatiles, maxHintIDs),
		Classes:   clamp(h.Classes, maxHintIDs),
		Events:    clamp(h.Events, maxHintEvents),
	}
}

// newEngineSink builds the session's real engine from its config. A
// journaled session's journal already holds its whole stream on disk, so
// its engine retains nothing: the session vindicates from the journal at
// clean close (Session.finish). Only an unjournaled vindicating session's
// engine retains the stream, in memory.
func newEngineSink(cfg SessionConfig, onRace func(race.RaceInfo), journaled bool, met *race.EngineMetrics) (engineSink, error) {
	opts := []race.Option{
		race.WithCapacityHints(clampHints(cfg.Hints)),
		race.WithOnRace(onRace),
		race.WithMetrics(met),
	}
	if len(cfg.Analyses) > 0 {
		opts = append(opts, race.WithAnalysisNames(cfg.Analyses...))
	}
	if cfg.Vindicate && !journaled {
		opts = append(opts, race.WithVindication())
	}
	if cfg.Parallelism > 1 {
		opts = append(opts, race.WithParallelism(cfg.Parallelism), race.WithBatchSize(cfg.BatchSize))
	}
	return race.NewEngine(opts...)
}

// guard runs one call into a session's engine, converting a panic into an
// error — "server: analysis panicked<at>: …" — so a poisoned analysis fails
// its own session and nothing else. at names the call site (" at close",
// " at sync"; empty for a feed).
func guard(at string, call func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: analysis panicked%s: %v", at, r)
		}
	}()
	return call()
}

// abortSink discards the engine, swallowing a panic (the session is already
// failed; there is nothing further to poison).
func abortSink(sink engineSink) {
	guard("", func() error { sink.Abort(); return nil })
}
