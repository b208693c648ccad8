package race

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/ft"
	"repro/internal/fto"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/unopt"
)

// engineConfig collects the functional options of NewEngine.
type engineConfig struct {
	names     []string
	vindicate bool
	onRace    func(RaceInfo)
	unchecked bool
	par       int
	batch     int // the pipeline's batch length; 0 is batchSize, the only value outside tests
	met       *EngineMetrics
}

// Option configures an Engine.
type Option func(*engineConfig)

// WithAnalysisNames adds Table 1 cells to the engine's fan-out by display
// name (see Detectors), e.g. "ST-DC" or "FTO-HB": every listed analysis
// consumes the event stream in the same single pass, the way RoadRunner
// runs the paper's full analysis matrix over one execution. Without it the
// engine runs ST-WDC, the paper's recommended configuration.
func WithAnalysisNames(names ...string) Option {
	return func(c *engineConfig) { c.names = append(c.names, names...) }
}

// WithVindication makes Close vindicate the detected races: the engine
// retains the event stream in memory, replays it under an unoptimized
// graph-building WDC analysis (§4.3's record & replay split), and attempts
// a witness reordering for the first race at each racing program location
// (Report.Vindicate). Retaining the stream costs memory proportional to its
// length; a caller that already keeps the stream elsewhere — a trace file
// written with NewTraceEncoder while feeding, a server's session journal —
// leaves this option off and calls Report.Vindicate on that stream after
// Close instead.
func WithVindication() Option {
	return func(c *engineConfig) { c.vindicate = true }
}

// WithOnRace installs an online race callback, invoked during FeedBatch as
// detections happen — the paper's "detect races during the analyzed
// execution" shape. On a sequential engine the callback runs synchronously
// on the feeding goroutine; on a parallel engine (WithParallelism) it runs
// on a single delivery goroutine, so invocations never race each other,
// and races from one analysis arrive in detection order (RaceInfo.Seq).
// The callback must not call back into the engine.
func WithOnRace(fn func(RaceInfo)) Option {
	return func(c *engineConfig) { c.onRace = fn }
}

// WithUncheckedInput disables the engine's incremental well-formedness
// checking, for callers that have already validated the stream (e.g. a
// replay of a checked trace). The checker is two dense table lookups per
// event, so what the option buys is the last few ns/event — on the default
// ST-WDC engine over an avrora-like trace, roughly a fifth of the per-event
// cost — not a different order of throughput.
func WithUncheckedInput() Option {
	return func(c *engineConfig) { c.unchecked = true }
}

// WithParallelism runs the engine's analyses on up to n worker goroutines
// pulling event batches from one shared ring — the pipelined fan-out that
// makes a multi-analysis engine scale with cores instead of paying one full
// analysis cost per Table 1 cell per event. The unit a worker runs is a
// computation, not a cell: the FT2, FTO and Unopt cells of one relation
// share one (see FeedBatch), so n is capped at the number of computations —
// 7 for the full 15-cell matrix — and workers take the costliest pending
// computation first, by cost measured on the stream itself. n ≤ 1 keeps
// the sequential engine. FeedBatch must still be called from one goroutine
// at a time; the Close report is identical to the sequential engine's, and
// OnRace callbacks are delivered from a single goroutine in per-analysis
// detection order (see RaceInfo.Seq). A good default is
// runtime.GOMAXPROCS(0) when the fan-out has at least that many
// computations.
func WithParallelism(n int) Option {
	return func(c *engineConfig) { c.par = n }
}

// engineDet is one detector of the fan-out: its report name, the collector
// its races land in, and its race-delivery cursor.
type engineDet struct {
	name string
	col  *report.Collector
	seen int // races already delivered to the OnRace callback
}

// computation is the engine's unit of work, and of scheduling on the
// parallel pipeline: one HandleRun call per run of events on behalf of one
// or more detectors, with the run's same-epoch bitmap. The FT2, FTO and
// Unopt cells of one relation share a computation — one relation substrate
// advanced once per event, each cell a view reading its P (see
// ccs.Substrate for why that is exact) — so the full Table 1 matrix is 7
// computations, not 15: HB, WCP, DC, WDC, and each SmartTrack cell alone,
// because SmartTrack's CS lists feed last-access metadata back into P.
type computation struct {
	name string // the shared relation, or the lone SmartTrack cell
	a    interface {
		HandleRun(evs []trace.Event, same analysis.Same)
	}
	dets []int // indices into Engine.dets, in fan-out order
}

// Engine is a streaming, multi-analysis race detection engine: the public
// API's embodiment of the paper's online analyses. An engine is constructed
// before any events exist, consumes an event stream incrementally through
// FeedBatch, one run at a time, runs every configured analysis in one pass,
// reports races online through the optional OnRace callback, and produces a
// final Report at Close.
//
// Cells of one relation below the SmartTrack level share their relation's
// synchronization and CCS state (see computation), whichever way the engine
// runs; every sub-report is byte-identical to that cell analyzed alone.
//
// With WithParallelism the computations run on worker goroutines fed by a
// batched pipeline (see pipeline.go); FeedBatch becomes a cheap enqueue and
// the Close report is bit-identical to the sequential engine's.
//
// An Engine is not safe for concurrent use; callers (such as Runtime)
// serialize FeedBatch calls. After an error from FeedBatch the engine is
// poisoned: subsequent FeedBatch and Close calls return the same error.
type Engine struct {
	dets   []engineDet
	comps  []computation
	chk    *trace.Checker
	onRace func(RaceInfo)
	pipe   *pipeline // non-nil iff the engine runs the parallel fan-out

	// mark flags the accesses every computation would skip as same-epoch
	// (see analysis.SameEpoch), on the feeding goroutine after the checker;
	// nil unless the engine has two or more computations. One computation
	// has nothing to share the stamp table's cost with: its HandleRun
	// decides same-epoch inside its own loop, one lookup in metadata it
	// reads anyway, and the table would be a second cache miss on a large
	// variable space. The sequential engine marks into same; the pipeline
	// marks into each batch's own bitmap.
	mark *analysis.SameEpoch
	same analysis.Same

	keep   bool // retain events for vindication at Close
	events []Event
	met    *EngineMetrics // non-nil iff WithMetrics configured

	fed    int
	err    error
	closed bool
}

// NewEngine builds a streaming engine from functional options. It returns
// an error — not a panic — for an unknown analysis name.
func NewEngine(opts ...Option) (*Engine, error) {
	cfg := &engineConfig{}
	for _, opt := range opts {
		opt(cfg)
	}
	names := cfg.names
	if len(names) == 0 {
		names = []string{"ST-WDC"}
	}
	var entries []analysis.Entry
	for _, name := range names {
		entry, ok := analysis.ByName(name)
		if !ok {
			return nil, fmt.Errorf("race: unknown analysis %q (see Detectors())", name)
		}
		if !slices.ContainsFunc(entries, func(e analysis.Entry) bool { return e.Name == name }) {
			entries = append(entries, entry)
		}
	}
	e := &Engine{onRace: cfg.onRace, keep: cfg.vindicate, met: cfg.met}
	if !cfg.unchecked {
		e.chk = trace.NewChecker()
	}
	e.build(entries)
	if len(e.comps) > 1 {
		e.mark = new(analysis.SameEpoch)
	}
	if n := min(cfg.par, len(e.comps)); n > 1 {
		e.startPipeline(n, cmp.Or(cfg.batch, batchSize))
	}
	return e, nil
}

// build turns the fan-out into detectors and the computations behind them.
func (e *Engine) build(entries []analysis.Entry) {
	e.dets = make([]engineDet, len(entries))
	for di, entry := range entries {
		e.dets[di].name = entry.Name
		name := entry.Name // a SmartTrack cell computes alone
		if entry.Level != SmartTrack {
			name = entry.Relation.String()
		}
		ci := slices.IndexFunc(e.comps, func(c computation) bool { return c.name == name })
		if ci < 0 {
			ci = len(e.comps)
			e.comps = append(e.comps, computation{name: name})
		}
		e.comps[ci].dets = append(e.comps[ci].dets, di)
	}
	for ci := range e.comps {
		c := &e.comps[ci]
		first := entries[c.dets[0]]
		if len(c.dets) == 1 { // nothing to share: the standalone cell
			a := first.New()
			c.a, e.dets[c.dets[0]].col = a, a.Races()
			continue
		}
		buildGraph := slices.ContainsFunc(c.dets, func(di int) bool { return entries[di].Level == UnoptG })
		sub := ccs.NewSubstrate(first.Relation, buildGraph)
		var views []ccs.View
		var uv *unopt.View // one view reports as "Unopt-X" and as "Unopt-X w/G"
		edged := 0
		for _, di := range c.dets {
			d := &e.dets[di]
			switch entries[di].Level {
			case FT2:
				v := ft.NewView(sub)
				views, d.col = append(views, v), v.Races()
			case FTO:
				v := fto.NewView(sub)
				views, d.col = append(views, v), v.Races()
			default:
				if uv == nil {
					uv = unopt.NewView(sub)
					edged, views = len(views), append(views, uv)
				}
				d.col = uv.Races()
			}
		}
		c.a = ccs.NewGroup(sub, views, edged)
	}
}

// Detectors lists the names of the engine's configured analyses, in
// fan-out order.
func (e *Engine) Detectors() []string {
	out := make([]string, len(e.dets))
	for i := range e.dets {
		out[i] = e.dets[i].name
	}
	return out
}

// Fed returns the number of events consumed so far.
func (e *Engine) Fed() int { return e.fed }

// feedChunk is the longest run FeedBatch commits in one piece: per-call
// costs vanish per event, and a piece stays cache-resident between the
// checking pass and the analysis passes.
const feedChunk = 8192

// ErrEventLimit is the sticky error of an Engine fed a run that would take
// its stream past math.MaxInt32 events. The analyses index events with an
// int32, and a thread's clock ticks at most once per event, which is what
// holds every clock component to 32 bits. The run, and every later one, is
// refused, whether or not the engine checks its input.
var ErrEventLimit = errors.New("race: a stream holds at most 2147483647 events")

// feed commits one piece of a FeedBatch run: check it, retain it if Close
// will vindicate, then mark and dispatch the accepted prefix — into the
// pipeline's current batch, or through each computation in turn.
func (e *Engine) feed(evs []Event) error {
	var verr error
	if e.chk != nil {
		if n, err := e.chk.Run(evs); err != nil {
			verr = fmt.Errorf("race: ill-formed event stream: %w", err)
			evs = evs[:n]
		}
	}
	if e.keep {
		e.events = append(e.events, evs...)
	}
	if e.pipe != nil {
		if err := e.checkPipe(); err != nil {
			return err
		}
		if err := e.enqueue(evs); err != nil {
			return err
		}
	} else {
		var same analysis.Same
		if e.mark != nil {
			e.same = e.same[:0].Cover(len(evs))
			e.mark.Mark(evs, e.same, 0)
			same = e.same
		}
		for i := range e.comps {
			e.apply(&e.comps[i], evs, same, e.onRace)
		}
	}
	e.fed += len(evs)
	if e.met != nil {
		e.met.eventsFed.Add(uint64(len(evs)))
	}
	if verr != nil {
		e.err = verr
	}
	return verr
}

// pending returns d's oldest not-yet-delivered race, stamped with its
// per-analysis sequence number.
func (d *engineDet) pending() RaceInfo {
	rc := d.col.RaceAt(d.seen)
	return RaceInfo{
		Analysis: d.name,
		Seq:      d.seen,
		Var:      rc.Var,
		Loc:      uint32(rc.Loc),
		Index:    rc.Index,
		Write:    rc.Write,
	}
}

// apply is the unit of dispatch, on the feeding goroutine and on a pipeline
// worker alike: c consumes a run of events in one call, skipping what same
// marks, then its detectors' new races are published.
func (e *Engine) apply(c *computation, evs []Event, same analysis.Same, emit func(RaceInfo)) {
	c.a.HandleRun(evs, same)
	if emit != nil || e.met != nil {
		for _, di := range c.dets {
			e.publish(&e.dets[di], emit)
		}
	}
}

// publish advances d's delivery cursor over its not-yet-delivered races, in
// detection order: each is counted into the metrics registry and, unless
// emit is nil, handed to it — the OnRace callback itself, or the pipeline's
// send to the goroutine that calls it. RaceCount is a cheap counter read;
// the race records are only touched on the (rare) runs that detected
// something.
func (e *Engine) publish(d *engineDet, emit func(RaceInfo)) {
	for n := d.col.RaceCount(); d.seen < n; d.seen++ {
		if e.met != nil {
			e.met.races.Inc()
		}
		if emit != nil {
			emit(d.pending())
		}
	}
}

// checkPipe surfaces a dead pipeline as the engine's sticky error.
func (e *Engine) checkPipe() error {
	if e.pipe.dead.Load() {
		e.err = e.pipe.firstErr()
		if e.err == nil {
			e.err = errors.New("race: pipeline worker failed")
		}
		return e.err
	}
	return nil
}

// FeedBatch consumes the next run of the stream, of any length, running
// every configured analysis on it: the engine's one way in, whether the run
// is one event, a per-thread run from a Runtime, an event frame arriving at
// a raced server or a whole trace's Events. The run is committed in pieces
// of at most 8192 events, each with one well-formedness pass and one
// HandleRun call per computation (or a single append into the parallel
// pipeline's current batch), instead of per-event bookkeeping. On an engine
// with two or more computations, each piece is also marked once for the
// accesses every computation would skip as same-epoch (see
// analysis.SameEpoch), so that no computation looks them up in its own
// metadata; the bitmap stays inside the engine.
//
// Semantics match feeding the events one at a time: if event i is
// ill-formed, events [0, i) are fully analyzed, the engine is poisoned, and
// the checker's error is returned; every later FeedBatch, of any run, empty
// included, and Close return that error. The one observable difference is
// OnRace interleaving on a sequential multi-analysis engine: within a piece
// each analysis runs to completion before the next (as the parallel
// pipeline always has), so per-analysis detection order and Seq numbering
// are unchanged, but callbacks of different analyses interleave per piece,
// not per event — and cells of one relation deliver together: the FT2, FTO
// and Unopt cells of a relation run as one computation over shared
// synchronization state, so after each piece their new races arrive back to
// back, in fan-out order, at the position of the relation's first cell.
func (e *Engine) FeedBatch(evs []Event) error {
	if e.closed {
		return errors.New("race: FeedBatch on closed engine")
	}
	if e.err != nil {
		return e.err
	}
	if len(evs) > math.MaxInt32-e.fed {
		e.err = ErrEventLimit
		return e.err
	}
	for {
		n := min(len(evs), feedChunk)
		var t0 time.Time
		if e.met != nil {
			t0 = time.Now()
		}
		err := e.feed(evs[:n])
		if e.met != nil {
			e.met.feedBatch.ObserveDuration(time.Since(t0))
		}
		if err != nil {
			return err
		}
		if evs = evs[n:]; len(evs) == 0 {
			return nil
		}
	}
}

// EventSink consumes an event stream and produces a final report — the
// abstraction a Runtime records into. *Engine is the in-process sink; a
// raced client session (race/server.RemoteSession) is the remote one, which
// is how an instrumented program streams its trace to a detector fleet
// instead of analyzing locally. Sinks follow Engine's contract: calls are
// serialized by the caller, errors are sticky, and Close finalizes the
// stream and returns the report.
type EventSink interface {
	FeedBatch([]Event) error
	Close() (*Report, error)
}

var _ EventSink = (*Engine)(nil)

// Abort discards the engine without computing a report: pipeline workers
// (if any) flush and join so no goroutines leak, and subsequent FeedBatch
// and Close calls fail. It is the cheap alternative to Close for a stream
// whose results no longer matter — Close on a vindicating engine replays
// the whole retained stream to vindicate its races; Abort does not. The
// server layer aborts the engines of evicted and disconnected sessions.
func (e *Engine) Abort() {
	if e.closed {
		return
	}
	e.closed = true
	e.drainPipeline()
	if e.err == nil {
		e.err = errors.New("race: engine aborted")
	}
}

// Close finalizes the stream and returns the engine's report. With a
// multi-analysis fan-out the report's top-level counts are the first
// analysis's; Analyses and ByAnalysis expose the rest. With WithVindication
// the report also carries a vindication verdict for the first race at each
// racing program location.
func (e *Engine) Close() (*Report, error) {
	if e.closed {
		return nil, errors.New("race: engine already closed")
	}
	e.closed = true
	// Flush the trailing batch and join the workers before reading any
	// analysis state; worker completion is the happens-before edge that
	// makes the collectors safe to read here.
	e.drainPipeline()
	if e.err != nil {
		return nil, e.err
	}
	subs := make([]*Report, len(e.dets))
	for i := range e.dets {
		subs[i] = &Report{name: e.dets[i].name, col: e.dets[i].col}
	}
	rep := &Report{name: subs[0].name, col: subs[0].col, subs: subs}
	if e.keep {
		if err := rep.Vindicate(&Trace{Events: e.events}); err != nil {
			e.err = err
			return nil, err
		}
	}
	return rep, nil
}
