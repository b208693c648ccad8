package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vc"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// The traced run prices every layer from outside, by timing calls into its
// public functions under the benchmark's own span recorder, while one trace
// — of the workload's own family — climbs the cost ledger of ROADMAP item 1:
//
//	bare cell → unchecked engine → checked engine → +metrics
//	  → wire codec → journal append (no sync / sync)
//	  → in-process session → loopback TCP client → durable backend
//	  → router hop → tracing on
//
// Every *_ns_per_event figure is process CPU (user+sys) per event, the
// quantity that adds up across layers whether or not they overlap in time;
// latencies are wall milliseconds. The rungs are run round-robin, ledgerReps
// rounds of all of them, so that a rung's repetitions lie seconds apart and a
// burst of contention cannot hit them all; each is then read from its
// median repetition.

const ledgerReps = 5

// ledgerTraces are the traced run's inputs: about a tenth of the
// end-to-end sizes, so sixty-odd measurements fit in some twenty seconds.
var ledgerTraces = map[string]struct {
	program string
	div     int
}{
	"flat":   {"avrora", 1000},
	"nested": {"xalan", 1000},
	"h2":     {"h2", 8000},
}

// family names the ledger trace a workload's traced run climbs with.
func (w *scenario) family() string {
	switch w.program {
	case "xalan":
		return "nested"
	case "h2":
		return "h2"
	}
	return "flat"
}

// perEvent is a rung's cost divided by the events it processed.
type perEvent struct {
	cpu, wall, alloc float64
	roots            []int     // the root span of each repetition
	acks             []float64 // ms, every chunk of every repetition
}

type rungDoc struct {
	Name            string  `json:"name"`
	Events          int     `json:"events"`
	CPUNsPerEvent   float64 `json:"cpu_ns_per_event"`
	WallNsPerEvent  float64 `json:"wall_ns_per_event"`
	AllocBPerEvent  float64 `json:"alloc_bytes_per_event"`
	FlushAckSamples int     `json:"flush_ack_samples,omitempty"`
}

// ledgerDoc is everything one traced run measured.
type ledgerDoc struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Family    string             `json:"family"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Rungs     []rungDoc          `json:"rungs"`
	SelfMs    map[string]float64 `json:"span_self_time_ms"`
	SpansFile string             `json:"spans_file"`
	Errors    []string           `json:"errors,omitempty"`
}

// ledger is one traced run in progress: its inputs, the recorder, the rungs
// to run, and the costs later rungs are differenced against.
type ledger struct {
	rec  *recorder
	doc  *ledgerDoc
	m    map[string]float64 // doc.Metrics
	reps int
	// passes numbers the repetitions; each is one "pass" to the recorder.
	passes  int
	dataDir string
	rungs   []*rung
	spans   []span // everything the recorder finished, once run has returned

	fam    string                      // the climbing family
	traces map[string]*race.Trace      // by family
	progs  map[string]workload.Program // by family
	ct     *race.Trace                 // traces[fam], the trace that climbs
	n      int                         // len(ct.Events)
	co     *oracle                     // ST-WDC on ct
	o15    *oracle                     // all 15 cells on traces["h2"]

	bare, checked, session, router *perEvent
}

// rung is one measured step of the ledger and the samples taken of it.
type rung struct {
	name   string
	events int
	reps   int
	traced bool
	fn     func(c *passCtx) error
	out    perEvent

	cpus, walls, allocs []float64
}

// add registers a rung; its cost is in the returned perEvent once run has
// returned. fn may leave a check of its output in c.verify and teardown with
// c.afterwards; both run after the measured region.
func (l *ledger) add(name string, events, reps int, traced bool, fn func(c *passCtx) error) *perEvent {
	r := &rung{name: name, events: events, reps: reps, traced: traced, fn: fn}
	l.rungs = append(l.rungs, r)
	return &r.out
}

// run measures every rung, round-robin in registration order (so a rung may
// consume what an earlier one of the same round produced), each repetition
// under its own root span and pass id. A repetition is one operation: an
// error from fn or from its check counts as failed.
func (l *ledger) run() {
	for round := range l.reps {
		for _, r := range l.rungs {
			if round < r.reps {
				l.once(r)
			}
		}
	}
	l.spans = l.rec.finished()
	for _, r := range l.rungs {
		n := float64(r.events)
		r.out.cpu, r.out.wall = median(r.cpus)/n, median(r.walls)/n
		r.out.alloc = median(r.allocs) / n
		l.doc.Rungs = append(l.doc.Rungs, rungDoc{Name: r.name, Events: r.events,
			CPUNsPerEvent: r.out.cpu, WallNsPerEvent: r.out.wall, AllocBPerEvent: r.out.alloc, FlushAckSamples: len(r.out.acks)})
	}
}

func (l *ledger) once(r *rung) {
	l.passes++
	c := &passCtx{pass: l.passes}
	if r.traced {
		c.rec = l.rec
	}
	var err error
	cost := measure(func() {
		c.parent = c.rec.begin(r.name, 0, c.pass)
		err = r.fn(c)
		c.rec.end(c.parent)
	})
	c.finish()
	if err == nil && c.verify != nil {
		err = c.verify()
	}
	l.doc.Attempted++
	if err != nil {
		l.doc.Failed++
		if len(l.doc.Errors) < 8 {
			l.doc.Errors = append(l.doc.Errors, r.name+": "+err.Error())
		}
	}
	r.cpus = append(r.cpus, float64(cost.cpu.Nanoseconds()))
	r.walls = append(r.walls, float64(cost.wall.Nanoseconds()))
	r.allocs = append(r.allocs, float64(cost.alloc))
	r.out.roots = append(r.out.roots, c.parent)
	r.out.acks = append(r.out.acks, c.acks...)
}

// childMs returns the durations (ms) of the spans called name directly
// under any of the given root spans.
func (l *ledger) childMs(roots []int, name string) []float64 {
	under := map[int]bool{}
	for _, r := range roots {
		under[r] = true
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && under[s.Parent] {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

func runLedger(w *scenario, seed int64, quick bool, dataDir, spansPath string, log io.Writer) (*ledgerDoc, error) {
	l := &ledger{rec: newRecorder(), reps: ledgerReps, dataDir: dataDir, fam: w.family(),
		traces: map[string]*race.Trace{}, progs: map[string]workload.Program{},
		doc: &ledgerDoc{Workload: w.name, Seed: seed, Family: w.family(), Metrics: map[string]float64{}, SpansFile: spansPath}}
	l.m = l.doc.Metrics
	if quick {
		l.reps = 1
	}
	divOf := func(fam string) int {
		if quick {
			return ledgerTraces[fam].div * quickDiv / 5
		}
		return ledgerTraces[fam].div
	}
	for fam, in := range ledgerTraces {
		var err error
		if l.progs[fam], l.traces[fam], err = generate(in.program, divOf(fam), seed); err != nil {
			return nil, err
		}
	}
	l.ct = l.traces[l.fam]
	l.n = len(l.ct.Events)
	var err error
	if l.co, err = newOracle(l.progs[l.fam], l.ct, stWDC); err != nil {
		return nil, err
	}
	if l.o15, err = newOracle(l.progs["h2"], l.traces["h2"], race.Detectors()); err != nil {
		return nil, err
	}
	generated := l.add("workload.generate", l.n, l.reps, true, func(*passCtx) error {
		if got := len(l.progs[l.fam].Generate(divOf(l.fam), seed).Events); got != l.n {
			return fmt.Errorf("same seed generated %d events, then %d", l.n, got)
		}
		return nil
	})
	derive := []func(){l.primitives(), l.cells(), l.engine(), l.pipeline(), l.vindication(), l.wire(), l.racelog(), l.server(), l.runtime()}
	l.run()
	l.m["workload.generate_ns_per_event"] = generated.cpu
	for _, d := range derive {
		d()
	}

	// What the independently priced components leave unexplained of the top
	// rung (client → router → durable backend): queues, goroutine hand-offs
	// and socket system calls. The router decodes and re-encodes, so the
	// codec is paid twice.
	parts := l.bare.cpu + l.m["trace.checker_ns_per_event"] + l.m["store.append_ns_per_event"] +
		2*(l.m["wire.encode_ns_per_event"]+l.m["wire.decode_ns_per_event"])
	l.m["ledger.unattributed_share"] = (l.router.cpu - parts) / l.router.cpu

	return l.doc, l.report(log)
}

// Each method below registers the rungs of one layer and returns the
// function that, once they have run, turns their costs into metrics.

// primitives prices internal/trace and internal/vc: loops over their public
// primitives.
func (l *ledger) primitives() func() {
	checker := l.add("trace.checker", l.n, l.reps, true, func(*passCtx) error {
		ck := trace.NewChecker()
		for _, e := range l.ct.Events {
			if err := ck.Step(e); err != nil {
				return err
			}
		}
		return nil
	})
	codec := l.add("trace.record_codec", l.n, l.reps, true, func(*passCtx) error {
		var rec [trace.RecordSize]byte
		for _, e := range l.ct.Events {
			trace.PutRecord(rec[:], e)
			got, err := trace.GetRecord(rec[:])
			if err != nil || got != e {
				return fmt.Errorf("record codec: %v round-tripped to %v (%v)", e, got, err)
			}
		}
		return nil
	})
	const joins = 1 << 20
	join := func(width int) *perEvent {
		a, b := vc.New(width), vc.New(width)
		for t := range width {
			a.Set(vc.Tid(t), vc.Clock(2*t+1))
			b.Set(vc.Tid(t), vc.Clock(3*(width-t)))
		}
		return l.add(fmt.Sprintf("vc.join%d", width), joins, l.reps, true, func(*passCtx) error {
			for range joins / 2 {
				a.Join(b)
				b.Join(a)
			}
			return nil
		})
	}
	join8, join64 := join(8), join(64)
	return func() {
		l.m["trace.checker_ns_per_event"] = checker.cpu
		l.m["trace.record_codec_ns_per_event"] = codec.cpu
		l.m["vc.join8_ns"], l.m["vc.join64_ns"] = join8.cpu, join64.cpu
	}
}

// cells prices the analyses bare — analysis.Run with no engine around it —
// and derives the paper's headline ratios from them.
func (l *ledger) cells() func() {
	costs := map[string]*perEvent{} // "<slug>.<family>"
	cell := func(name, fam string) {
		entry, _ := analysis.ByName(name)
		tr := l.traces[fam]
		want := l.progs[fam].ExpectedStatic(entry.Relation.String())
		key := cellSlug(name) + "." + fam
		costs[key] = l.add("cell."+key, len(tr.Events), l.reps, true, func(*passCtx) error {
			if got := analysis.Run(entry.NewFor(tr), tr).Static(); got != want {
				return fmt.Errorf("%s on %s: %d static races, generator seeded %d", name, fam, got, want)
			}
			return nil
		})
	}
	for _, name := range race.Detectors() {
		cell(name, "h2")
	}
	for _, name := range familyCells {
		cell(name, "flat")
		cell(name, "nested")
	}
	l.bare = costs["st-wdc."+l.fam]

	return func() {
		for key, pe := range costs {
			l.m["cell."+key+"_ns_per_event"] = pe.cpu
		}
		l.m["cell.st-wdc.nested_alloc_bytes_per_event"] = costs["st-wdc.nested"].alloc

		entry, _ := analysis.ByName("ST-WDC")
		before := liveHeap()
		a := entry.NewFor(l.traces["nested"])
		analysis.Run(a, l.traces["nested"])
		l.m["cell.st-wdc.nested_live_mb"] = (float64(liveHeap()) - float64(before)) / (1 << 20)
		runtime.KeepAlive(a)

		ratio := func(num, den, fam string) {
			l.m["ratio."+num+"_over_"+den+"."+fam] = costs[num+"."+fam].cpu / costs[den+"."+fam].cpu
		}
		ratio("st-wdc", "fto-hb", "flat")
		ratio("st-wdc", "fto-hb", "nested")
		ratio("st-wdc", "fto-hb", "h2")
		ratio("st-dc", "fto-hb", "nested")
	}
}

// engine puts race.Engine around the ST-WDC cell on the climbing trace:
// unchecked, checked (once more with the recorder off, which prices the
// recorder), and with metrics attached.
func (l *ledger) engine() func() {
	rung := func(name string, traced bool, opts func() []race.Option) *perEvent {
		return l.add(name, l.n, l.reps, traced, func(c *passCtx) error {
			rep, err := runEngine(c, l.ct, opts()...)
			c.verify = func() error { return l.co.check(rep) }
			return err
		})
	}
	none := func() []race.Option { return nil }
	unchecked := rung("engine.unchecked", true, func() []race.Option { return []race.Option{race.WithUncheckedInput()} })
	l.checked = rung("engine.checked", true, none)
	untraced := rung("engine.checked.untraced", false, none)
	withMetrics := rung("engine.metrics", true, func() []race.Option {
		return []race.Option{race.WithMetrics(race.NewEngineMetrics(obs.NewRegistry(), "bench_engine"))}
	})
	return func() {
		l.m["engine.dispatch_ns_per_event"] = unchecked.cpu - l.bare.cpu
		l.m["engine.checker_delta_ns_per_event"] = l.checked.cpu - unchecked.cpu
		l.m["engine.metrics_delta_ns_per_event"] = withMetrics.cpu - l.checked.cpu
		l.m["engine.close_ms"] = median(l.childMs(l.checked.roots, "engine.close"))
		l.m["bench.span_overhead_share"] = (l.checked.wall - untraced.wall) / untraced.wall
	}
}

// pipeline runs the 15-cell fan-out, sequential and pipelined, on the h2
// trace.
func (l *ledger) pipeline() func() {
	h2 := l.traces["h2"]
	fanout := func(name string, workers int) *perEvent {
		return l.add(name, len(h2.Events), l.reps, true, func(c *passCtx) error {
			rep, err := runEngine(c, h2, race.WithAnalysisNames(race.Detectors()...), race.WithParallelism(workers))
			c.verify = func() error { return l.o15.check(rep) }
			return err
		})
	}
	seq15, par15 := fanout("pipeline.seq15", 1), fanout("pipeline.par15", pipelineWorkers())
	return func() {
		l.m["pipeline.seq15_ns_per_event"] = seq15.cpu
		l.m["pipeline.par15_wall_ns_per_event"] = par15.wall
		l.m["pipeline.speedup_x"] = seq15.wall / par15.wall
		l.m["pipeline.overhead_cpu_share"] = (par15.cpu - seq15.cpu) / seq15.cpu
	}
}

// vindication prices internal/vindicate: what Close costs a vindicating
// engine on the nested trace, per verdict. Once: it takes seconds.
func (l *ledger) vindication() func() {
	verdicts := 0
	pe := l.add("vindicate", len(l.traces["nested"].Events), 1, true, func(c *passCtx) error {
		rep, err := runEngine(c, l.traces["nested"], race.WithVindication())
		if err != nil {
			return err
		}
		for _, r := range rep.Races() {
			if _, ok := rep.Vindication(r.Index); ok {
				verdicts++
			}
		}
		if verdicts == 0 {
			return errors.New("vindicating engine recorded no verdicts")
		}
		return nil
	})
	return func() {
		l.m["vindicate.ms_per_race"] = median(l.childMs(pe.roots, "engine.close")) / float64(max(verdicts, 1))
	}
}

// wire prices internal/wire: event frames through a bytes.Buffer.
func (l *ledger) wire() func() {
	var frames bytes.Buffer
	encode := l.add("wire.encode", l.n, l.reps, true, func(*passCtx) error {
		frames.Reset()
		var payload []byte
		return chunks(l.ct.Events, func(evs []race.Event) error {
			payload = wire.AppendEvents(payload[:0], evs)
			return wire.WriteFrame(&frames, wire.TEvents, payload)
		})
	})
	decode := l.add("wire.decode", l.n, l.reps, true, func(*passCtx) error {
		r, decoded := bytes.NewReader(frames.Bytes()), 0
		for {
			_, payload, err := wire.ReadFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			evs, err := wire.DecodeEvents(payload)
			if err != nil {
				return err
			}
			decoded += len(evs)
		}
		if decoded != l.n {
			return fmt.Errorf("wire decoded %d of %d events", decoded, l.n)
		}
		return nil
	})
	return func() {
		l.m["wire.encode_ns_per_event"] = encode.cpu
		l.m["wire.decode_ns_per_event"] = decode.cpu
		l.m["wire.bytes_per_event"] = float64(frames.Len()) / float64(l.n)
	}
}

// racelog prices internal/store on its own: append with a barrier every
// chunk (with and without fsync), size on disk, and reading back.
func (l *ledger) racelog() func() {
	logDir := filepath.Join(l.dataDir, "racelog")
	appendLog := func(opts store.Options) func(c *passCtx) error {
		return func(c *passCtx) error {
			if err := os.RemoveAll(logDir); err != nil {
				return err
			}
			lg, err := store.Open(logDir, opts)
			if err != nil {
				return err
			}
			err = chunks(l.ct.Events, func(evs []race.Event) error {
				if err := lg.AppendBatch(evs); err != nil {
					return err
				}
				sp := c.begin("store.sync")
				defer c.end(sp)
				return lg.Sync()
			})
			return errors.Join(err, lg.Close())
		}
	}
	synced := l.add("store.append.sync", l.n, l.reps, true, appendLog(store.Options{}))
	appended := l.add("store.append.nosync", l.n, l.reps, true, appendLog(store.Options{NoSync: true}))
	var logBytes int64
	read := l.add("store.read", l.n, l.reps, true, func(*passCtx) error {
		rd, err := store.OpenRead(logDir)
		if err != nil {
			return err
		}
		defer rd.Close()
		read := 0
		for {
			if _, err := rd.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			read++
		}
		if read != l.n {
			return fmt.Errorf("racelog read back %d of %d events", read, l.n)
		}
		logBytes = 0
		return filepath.WalkDir(logDir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err == nil {
				logBytes += info.Size()
			}
			return err
		})
	})
	return func() {
		l.m["store.fsync_p50_ms"] = median(l.childMs(synced.roots, "store.sync"))
		l.m["store.append_ns_per_event"] = appended.cpu
		l.m["store.read_ns_per_event"] = read.cpu
		l.m["store.bytes_per_event"] = float64(logBytes) / float64(l.n)
	}
}

// server climbs the service rungs: the session actor in process, the
// journal under it, then one wire client over loopback TCP into an
// in-memory server, a durable one, the same behind the router, and the
// first again with tracing on at both ends.
func (l *ledger) server() func() {
	inProcess := func(name string, durable bool) *perEvent {
		return l.add(name, l.n, l.reps, true, func(c *passCtx) error {
			cfg := server.Config{Logger: quietLog}
			if durable {
				cfg.DataDir = filepath.Join(l.dataDir, fmt.Sprintf("inproc-%d", c.pass))
				c.afterwards(func() { os.RemoveAll(cfg.DataDir) })
			}
			srv := server.New(cfg)
			c.afterwards(func() { srv.Close() })
			sess, err := srv.OpenSession(server.SessionConfig{})
			if err != nil {
				return err
			}
			err = chunks(l.ct.Events, func(evs []race.Event) error {
				sp := c.begin("session.flush")
				defer c.end(sp)
				// Feed takes ownership of the batch, so hand it a copy.
				if err := sess.Feed(append([]race.Event(nil), evs...)); err != nil {
					return err
				}
				return sess.Flush()
			})
			if err != nil {
				return err
			}
			rep, err := sess.Close()
			c.verify = func() error { return l.co.check(rep) }
			return err
		})
	}
	l.session = inProcess("server.session", false)
	journal := inProcess("server.session.durable", true)

	// overTCP streams the climbing trace from one wire client to whatever
	// boot starts; inspect, if set, looks at the service before it is stopped.
	overTCP := func(name string, tracer *tracing.Tracer, boot func(dir string) (*service, error), inspect func(*service)) *perEvent {
		return l.add(name, l.n, l.reps, true, func(c *passCtx) error {
			dir := filepath.Join(l.dataDir, fmt.Sprintf("tcp-%d", c.pass))
			c.afterwards(func() { os.RemoveAll(dir) })
			sp := c.begin("service.boot")
			svc, err := boot(dir)
			c.end(sp)
			if err != nil {
				return err
			}
			c.afterwards(svc.stop)
			docs, errs := runClients(c, svc.addr, l.ct, 1, tracer)
			if errs[0] != nil {
				return errs[0]
			}
			if inspect != nil {
				inspect(svc)
			}
			c.verify = func() error { return l.co.checkJSON(docs[0]) }
			return nil
		})
	}
	tcp := overTCP("server.tcp", nil, func(string) (*service, error) { return bootServer("", nil) }, nil)
	var fsyncs uint64 // journal fsyncs the durable backend counted, all repetitions
	durable := overTCP("server.tcp.durable", nil, func(dir string) (*service, error) { return bootServer(dir, nil) },
		func(svc *service) {
			for _, s := range svc.backends[0].Registry().Snapshot() {
				if s.Name == "raced_journal_fsync_seconds" && s.Hist != nil {
					fsyncs += s.Hist.Count
				}
			}
		})
	l.router = overTCP("fleet.router", nil, func(dir string) (*service, error) { return bootFleet(dir, 1) }, nil)
	tracer := tracing.New(tracing.Options{Service: "bench"})
	tracedTCP := overTCP("server.tcp.tracing", tracer, func(string) (*service, error) { return bootServer("", tracer) }, nil)

	// Session open and close-to-report latency: short sessions, one chunk
	// each, against one in-memory server.
	const shortSessions = 16
	head := &race.Trace{Events: l.ct.Events[:min(chunkEvents, l.n)]}
	short := l.add("server.short_sessions", shortSessions*len(head.Events), 1, true, func(c *passCtx) error {
		svc, err := bootServer("", nil)
		if err != nil {
			return err
		}
		c.afterwards(svc.stop)
		for range shortSessions {
			if _, errs := runClients(c, svc.addr, head, 1, nil); errs[0] != nil {
				return errs[0]
			}
		}
		return nil
	})

	return func() {
		l.m["server.session_delta_ns_per_event"] = l.session.cpu - l.checked.cpu
		l.m["server.journal_delta_ns_per_event"] = journal.cpu - l.session.cpu
		l.m["server.tcp_delta_ns_per_event"] = tcp.cpu - l.session.cpu
		l.m["server.flush_ack_p99_ms"] = quantile(tcp.acks, 0.99)
		l.m["server.flush_ack_samples"] = float64(len(tcp.acks))
		l.m["server.open_p50_ms"] = median(l.childMs(short.roots, "client.open"))
		l.m["server.close_report_p50_ms"] = median(l.childMs(short.roots, "client.close"))
		l.m["store.fsyncs_per_mevent"] = float64(fsyncs) / float64(l.reps) / float64(l.n) * 1e6
		l.m["fleet.router_delta_ns_per_event"] = l.router.cpu - durable.cpu
		l.m["fleet.router_flush_delta_ms"] = median(l.router.acks) - median(durable.acks)
		l.m["obs.tracing_delta_ns_per_event"] = tracedTCP.cpu - tcp.cpu
	}
}

// runtime prices race.Runtime recording into an attached ST-WDC engine from
// one goroutine per core, each on its own lock and variables.
func (l *ledger) runtime() func() {
	const iters = 1 << 16
	workers := runtime.NumCPU()
	record := l.add("runtime.record", workers*iters*4, l.reps, true, func(*passCtx) error {
		eng, err := race.NewEngine()
		if err != nil {
			return err
		}
		rt := race.NewRuntime(race.WithEngineAttached(eng))
		vars := make([]int, workers*64)
		locks := make([]int, workers)
		tids := make([]race.Tid, workers)
		var wg sync.WaitGroup
		for g := range workers {
			tids[g] = rt.Go(rt.Main())
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := tids[g]
				for i := range iters {
					x := &vars[g*64+i%64]
					rt.Acquire(t, &locks[g])
					rt.Write(t, x)
					rt.Read(t, x)
					rt.Release(t, &locks[g])
				}
			}()
		}
		wg.Wait()
		for _, t := range tids {
			rt.Join(rt.Main(), t)
		}
		rep, err := rt.Finish()
		if err != nil {
			return err
		}
		if rep.Dynamic() != 0 {
			return fmt.Errorf("race-free recording reported %d races", rep.Dynamic())
		}
		return nil
	})
	return func() { l.m["runtime.record_ns_per_op"] = record.cpu }
}

// report writes the spans out and prints every rung and metric.
func (l *ledger) report(log io.Writer) error {
	l.doc.SelfMs = map[string]float64{}
	for name, d := range selfTimes(l.spans) {
		l.doc.SelfMs[name] = ms(d)
	}
	if err := os.MkdirAll(filepath.Dir(l.doc.SpansFile), 0o755); err != nil {
		return err
	}
	f, err := os.Create(l.doc.SpansFile)
	if err != nil {
		return err
	}
	if err := errors.Join(writeChrome(f, l.spans), f.Close()); err != nil {
		return err
	}

	fmt.Fprintf(log, "traced run, workload %s seed %d: ledger climbs the %s trace (%d events), %d spans → %s\n",
		l.doc.Workload, l.doc.Seed, l.fam, l.n, len(l.spans), l.doc.SpansFile)
	fmt.Fprintf(log, "  %-28s %12s %12s %12s\n", "rung", "cpu ns/ev", "wall ns/ev", "alloc B/ev")
	for _, r := range l.doc.Rungs {
		fmt.Fprintf(log, "  %-28s %12.2f %12.2f %12.2f\n", r.Name, r.CPUNsPerEvent, r.WallNsPerEvent, r.AllocBPerEvent)
	}
	for _, d := range perLayer() {
		fmt.Fprintf(log, "  %-44s %14.6g %s\n", d.Name, l.m[d.Name], d.Unit)
	}
	names := make([]string, 0, len(l.doc.SelfMs))
	for name := range l.doc.SelfMs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return l.doc.SelfMs[names[i]] > l.doc.SelfMs[names[j]] })
	fmt.Fprintf(log, "  span self time (ms), largest first:")
	for _, name := range names[:min(8, len(names))] {
		fmt.Fprintf(log, " %s %.1f;", name, l.doc.SelfMs[name])
	}
	fmt.Fprintf(log, "\n  server.flush_ack_p99_ms is over %.0f samples\n", l.m["server.flush_ack_samples"])
	for _, e := range l.doc.Errors {
		fmt.Fprintf(log, "  FAILED: %s\n", e)
	}
	return nil
}
