package server

import (
	"fmt"

	"repro/race"
)

// SessionConfig is a client's requested engine configuration — the payload
// of the wire protocol's Hello frame. The engine sizes itself from the
// stream; decoding ignores unknown fields, so an old config carrying
// "hints" or "batch_size" still opens, or recovers from disk.
type SessionConfig struct {
	// Analyses lists Table 1 analyses by display name (see race.Detectors).
	// Empty runs the engine's default, SmartTrack-WDC.
	Analyses []string `json:"analyses,omitempty"`
	// Vindicate adds vindication verdicts to the report at close. A durable
	// session replays its journal for them; a memory-only one's engine
	// retains the stream (memory proportional to the stream).
	Vindicate bool `json:"vindicate,omitempty"`
	// Parallelism is race.WithParallelism's n: 0 or 1 runs sequentially.
	Parallelism int `json:"parallelism,omitempty"`
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

// newEngineSink builds the session's real engine from its config. A
// journaled session's journal already holds its whole stream on disk, so
// its engine retains nothing: the session vindicates from the journal at
// clean close (Session.finish). Only an unjournaled vindicating session's
// engine retains the stream, in memory.
func newEngineSink(cfg SessionConfig, onRace func(race.RaceInfo), journaled bool, met *race.EngineMetrics) (engineSink, error) {
	opts := []race.Option{
		race.WithAnalysisNames(cfg.Analyses...),
		race.WithParallelism(cfg.Parallelism),
		race.WithOnRace(onRace),
		race.WithMetrics(met),
	}
	if cfg.Vindicate && !journaled {
		opts = append(opts, race.WithVindication())
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
