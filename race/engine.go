package race

import (
	"errors"
	"fmt"
	"io"
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

// Cell names one cell of the paper's Table 1: a relation at an
// optimization level.
type Cell struct {
	Relation Relation
	Level    Level
}

func (c Cell) String() string { return fmt.Sprintf("%v/%v", c.Relation, c.Level) }

// CapacityHints pre-sizes detector state tables. Every field is a hint,
// never a bound: detectors grow on demand as new ids appear, so the zero
// value is always valid.
type CapacityHints struct {
	Threads   int
	Vars      int
	Locks     int
	Volatiles int
	Classes   int
	// Events hints the stream length (constraint-graph pre-sizing).
	Events int
}

// HintsOf derives exact capacity hints from a complete trace.
func HintsOf(tr *Trace) CapacityHints {
	return CapacityHints{
		Threads:   tr.Threads,
		Vars:      tr.Vars,
		Locks:     tr.Locks,
		Volatiles: tr.Volatiles,
		Classes:   tr.Classes,
		Events:    tr.Len(),
	}
}

func (h CapacityHints) spec() analysis.Spec {
	return analysis.Spec{
		Threads:   h.Threads,
		Vars:      h.Vars,
		Locks:     h.Locks,
		Volatiles: h.Volatiles,
		Classes:   h.Classes,
		Events:    h.Events,
	}
}

// engineConfig collects the functional options of NewEngine.
type engineConfig struct {
	rel       Relation
	relSet    bool
	lvl       Level
	lvlSet    bool
	cells     []Cell
	names     []string
	vindicate bool
	onRace    func(RaceInfo)
	hints     CapacityHints
	unchecked bool
	par       int
	batch     int
	met       *EngineMetrics
}

// Option configures an Engine.
type Option func(*engineConfig)

// WithRelation selects the relation of the engine's default analysis
// (combined with WithLevel). Without any analysis options the engine runs
// SmartTrack-WDC, the paper's recommended configuration.
func WithRelation(rel Relation) Option {
	return func(c *engineConfig) { c.rel, c.relSet = rel, true }
}

// WithLevel selects the optimization level of the engine's default
// analysis (combined with WithRelation).
func WithLevel(lvl Level) Option {
	return func(c *engineConfig) { c.lvl, c.lvlSet = lvl, true }
}

// WithAnalyses adds Table 1 cells to the engine's fan-out: every listed
// analysis consumes the event stream in the same single pass, the way
// RoadRunner runs the paper's full analysis matrix over one execution.
func WithAnalyses(cells ...Cell) Option {
	return func(c *engineConfig) { c.cells = append(c.cells, cells...) }
}

// WithAnalysisNames adds analyses to the fan-out by display name (see
// Detectors), e.g. "ST-DC" or "FTO-HB".
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

// WithOnRace installs an online race callback, invoked during Feed as
// detections happen — the paper's "detect races during the analyzed
// execution" shape. On a sequential engine the callback runs synchronously
// on the feeding goroutine; on a parallel engine (WithParallelism) it runs
// on a single delivery goroutine, so invocations never race each other,
// and races from one analysis arrive in detection order (RaceInfo.Seq).
// The callback must not call back into the engine.
func WithOnRace(fn func(RaceInfo)) Option {
	return func(c *engineConfig) { c.onRace = fn }
}

// WithCapacityHints pre-sizes detector state for the expected id spaces.
func WithCapacityHints(h CapacityHints) Option {
	return func(c *engineConfig) { c.hints = h }
}

// WithUncheckedInput disables the engine's incremental well-formedness
// checking, for callers that have already validated the stream (e.g. a
// replay of a checked trace). The checker is two dense table lookups per
// event, so what the option buys is the last few ns/event — on the default
// ST-WDC engine, roughly a fifth of the per-event cost — not a different
// order of throughput.
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
// the sequential engine. Feed must still be called from one goroutine at a
// time; the Close report is identical to the sequential engine's, and
// OnRace callbacks are delivered from a single goroutine in per-analysis
// detection order (see RaceInfo.Seq). A good default is
// runtime.GOMAXPROCS(0) when the fan-out has at least that many
// computations.
func WithParallelism(n int) Option {
	return func(c *engineConfig) { c.par = n }
}

// WithBatchSize sets the number of events the parallel pipeline groups per
// flush (default 1024). Larger batches amortize coordination further;
// smaller batches reduce the latency of OnRace delivery between
// synchronization events. Ignored by the sequential engine.
func WithBatchSize(k int) Option {
	return func(c *engineConfig) { c.batch = k }
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
// Feed (or FeedTrace / FeedSource), runs every configured analysis in one
// pass, reports races online through the optional OnRace callback, and
// produces a final Report at Close.
//
// Cells of one relation below the SmartTrack level share their relation's
// synchronization and CCS state (see computation), whichever way the engine
// runs; every sub-report is byte-identical to that cell analyzed alone.
//
// With WithParallelism the computations run on worker goroutines fed by a
// batched pipeline (see pipeline.go); Feed becomes a cheap enqueue and the
// Close report is bit-identical to the sequential engine's.
//
// An Engine is not safe for concurrent use; callers (such as Runtime)
// serialize Feed calls. After an error from Feed the engine is poisoned:
// subsequent Feed and Close calls return the same error.
type Engine struct {
	dets   []engineDet
	comps  []computation
	chk    *trace.Checker
	onRace func(RaceInfo)
	pipe   *pipeline // non-nil iff the engine runs the parallel fan-out

	// mark flags the accesses every computation would skip as same-epoch
	// (see analysis.SameEpoch), on the feeding goroutine after the checker;
	// nil unless the engine has two or more computations. One computation
	// has nothing to share the stamp table's cost with: its own same-epoch
	// test is the one lookup, and the table would be a second cache miss on
	// a large variable space. The sequential engine marks into same; the
	// pipeline marks into each batch's own bitmap.
	mark *analysis.SameEpoch
	same analysis.Same
	one  [1]Event // Feed's one-event run: a HandleRun argument, so not on Feed's stack

	keep   bool // retain events for vindication at Close
	events []Event
	met    *EngineMetrics // non-nil iff WithMetrics configured

	// spaces declares the id spaces of the retained stream (Events stays
	// nil), so that it can be rebuilt into a well-declared Trace;
	// maintained only when the engine retains (keep).
	spaces Trace

	fed    int
	err    error
	closed bool
}

// NewEngine builds a streaming engine from functional options. It returns
// an error — not a panic — for unknown analysis names, Table 1 cells the
// paper marks N/A, and an empty fan-out.
func NewEngine(opts ...Option) (*Engine, error) {
	cfg := &engineConfig{}
	for _, opt := range opts {
		opt(cfg)
	}
	cells := cfg.cells
	for _, name := range cfg.names {
		entry, ok := analysis.ByName(name)
		if !ok {
			return nil, fmt.Errorf("race: unknown analysis %q (see Detectors())", name)
		}
		cells = append(cells, Cell{entry.Relation, entry.Level})
	}
	if cfg.relSet || cfg.lvlSet || len(cells) == 0 {
		rel, lvl := WDC, SmartTrack
		if cfg.relSet {
			rel = cfg.rel
		}
		if cfg.lvlSet {
			lvl = cfg.lvl
		} else if rel == HB {
			lvl = FTO // SmartTrack-HB is N/A; FTO-HB is the paper's HB baseline
		}
		cells = append([]Cell{{rel, lvl}}, cells...)
	}
	e := &Engine{onRace: cfg.onRace, keep: cfg.vindicate, met: cfg.met}
	if !cfg.unchecked {
		e.chk = trace.NewChecker()
	}
	var entries []analysis.Entry
	seen := make(map[Cell]bool, len(cells))
	for _, cell := range cells {
		if seen[cell] {
			continue
		}
		seen[cell] = true
		entry, ok := analysis.Lookup(cell.Relation, cell.Level)
		if !ok {
			return nil, fmt.Errorf("race: no %v analysis at level %v (N/A in Table 1)", cell.Relation, cell.Level)
		}
		entries = append(entries, entry)
	}
	e.build(entries, cfg.hints.spec())
	if len(e.comps) > 1 {
		e.mark = new(analysis.SameEpoch)
	}
	if n := min(cfg.par, len(e.comps)); n > 1 {
		e.startPipeline(n, cfg.batch)
	}
	return e, nil
}

// build turns the fan-out into detectors and the computations behind them.
func (e *Engine) build(entries []analysis.Entry, spec analysis.Spec) {
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
			a := first.New(spec)
			c.a, e.dets[c.dets[0]].col = a, a.Races()
			continue
		}
		buildGraph := slices.ContainsFunc(c.dets, func(di int) bool { return entries[di].Level == UnoptG })
		sub := ccs.NewSubstrate(first.Relation, spec, buildGraph)
		var views []ccs.View
		var uv *unopt.View // one view reports as "Unopt-X" and as "Unopt-X w/G"
		edged := 0
		for _, di := range c.dets {
			d := &e.dets[di]
			switch entries[di].Level {
			case FT2:
				v := ft.NewView(sub, spec)
				views, d.col = append(views, v), v.Races()
			case FTO:
				v := fto.NewView(sub, spec)
				views, d.col = append(views, v), v.Races()
			default:
				if uv == nil {
					uv = unopt.NewView(sub, spec)
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

// feedChunk is the run length in which FeedTrace and FeedSource commit a
// stream: per-call costs vanish per event, and a chunk stays cache-resident
// between the checking pass and the analysis passes.
const feedChunk = 8192

// feed is the engine's one front end, behind every entry point: check the
// run, retain it if Close will vindicate, then mark and dispatch the
// accepted prefix — into the pipeline's current batch, or through each
// computation in turn.
func (e *Engine) feed(evs []Event) error {
	if e.closed {
		return errors.New("race: Feed on closed engine")
	}
	if e.err != nil {
		return e.err
	}
	var verr error
	if e.chk != nil {
		if n, err := e.chk.Run(evs); err != nil {
			verr = fmt.Errorf("race: ill-formed event stream: %w", err)
			evs = evs[:n]
		}
	}
	if e.keep {
		e.spaces.Widen(evs)
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

// Feed consumes the next event of the stream, running every configured
// analysis on it: a one-event run through the FeedBatch front end.
// Ill-formed input (per the incremental well-formedness rules) returns an
// error and poisons the engine.
func (e *Engine) Feed(ev Event) error {
	e.one[0] = ev
	return e.feed(e.one[:])
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

// FeedBatch consumes a run of events in one call — the feed-side batching
// that makes per-thread runs from a Runtime (and event frames arriving at a
// raced server) cheap to commit: one well-formedness pass and one HandleRun
// call per computation (or a single append into the parallel pipeline's
// current batch), instead of per-event bookkeeping. On an engine with two
// or more computations, the accepted prefix of the run is also marked once
// for the accesses every computation would skip as same-epoch (see
// analysis.SameEpoch), so that no computation looks them up in its own
// metadata; the bitmap stays inside the engine.
//
// Semantics match feeding the events one at a time: if event i is
// ill-formed, events [0, i) are fully analyzed, the engine is poisoned, and
// the checker's error is returned. The one observable difference is OnRace
// interleaving on a sequential multi-analysis engine: within a run each
// analysis runs to completion before the next (as the parallel pipeline
// always has), so per-analysis detection order and Seq numbering are
// unchanged, but callbacks of different analyses interleave per run, not
// per event — and cells of one relation deliver together: the FT2, FTO and
// Unopt cells of a relation run as one computation over shared
// synchronization state, so after each run their new races arrive back to
// back, in fan-out order, at the position of the relation's first cell.
// That holds on every entry point: Feed's run is one event, FeedTrace's
// and FeedSource's are 8192-event chunks.
func (e *Engine) FeedBatch(evs []Event) error {
	if e.met == nil {
		return e.feed(evs)
	}
	t0 := time.Now()
	err := e.feed(evs)
	e.met.feedBatch.ObserveDuration(time.Since(t0))
	return err
}

// FeedTrace streams a complete trace through the engine. The trace's
// declared id spaces widen the engine's capacity view up front; the events
// then flow through FeedBatch in 8192-event chunks, so on a sequential
// multi-analysis engine cross-analysis OnRace interleaving is per chunk;
// per-analysis order and Seq are unchanged (see FeedBatch).
func (e *Engine) FeedTrace(tr *Trace) error {
	if tr == nil {
		return errors.New("race: FeedTrace of nil trace")
	}
	sp := &e.spaces
	sp.Threads = max(sp.Threads, tr.Threads)
	sp.Vars = max(sp.Vars, tr.Vars)
	sp.Locks = max(sp.Locks, tr.Locks)
	sp.Volatiles = max(sp.Volatiles, tr.Volatiles)
	sp.Classes = max(sp.Classes, tr.Classes)
	for evs := tr.Events; len(evs) > 0; {
		n := min(len(evs), feedChunk)
		if err := e.FeedBatch(evs[:n]); err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// EventSource is a stream of events ending with io.EOF — implemented by
// the streaming trace decoders (NewTraceDecoder, NewTextTraceDecoder).
type EventSource interface {
	Next() (Event, error)
}

// EventSink consumes an event stream and produces a final report — the
// abstraction a Runtime records into. *Engine is the in-process sink; a
// raced client session (race/server.RemoteSession) is the remote one, which
// is how an instrumented program streams its trace to a detector fleet
// instead of analyzing locally. Sinks follow Engine's contract: calls are
// serialized by the caller, errors are sticky, and Close finalizes the
// stream and returns the report.
type EventSink interface {
	Feed(Event) error
	FeedBatch([]Event) error
	Close() (*Report, error)
}

var _ EventSink = (*Engine)(nil)

// FeedSource drains an EventSource into the engine, so arbitrarily large
// trace files pipe through without being materialized: events are committed
// through FeedBatch from one reused 8192-event buffer (so OnRace interleaves
// as in FeedTrace), those read before a source error included.
func (e *Engine) FeedSource(src EventSource) error {
	buf := make([]Event, 0, feedChunk)
	for {
		ev, err := src.Next()
		if err == nil {
			if buf = append(buf, ev); len(buf) < feedChunk {
				continue
			}
		}
		if ferr := e.FeedBatch(buf); ferr != nil {
			return ferr
		}
		buf = buf[:0]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Abort discards the engine without computing a report: pipeline workers
// (if any) flush and join so no goroutines leak, and subsequent Feed and
// Close calls fail. It is the cheap alternative to Close for a stream
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
	if len(e.dets) == 0 {
		return nil, errors.New("race: engine has no analyses")
	}
	subs := make([]*Report, len(e.dets))
	for i := range e.dets {
		subs[i] = &Report{name: e.dets[i].name, col: e.dets[i].col}
	}
	rep := &Report{name: subs[0].name, col: subs[0].col, subs: subs}
	if e.keep {
		tr := e.spaces
		tr.Events = e.events
		if err := rep.Vindicate(&tr); err != nil {
			e.err = err
			return nil, err
		}
	}
	return rep, nil
}
