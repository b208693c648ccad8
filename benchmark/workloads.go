package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// scenario is one row of the workload table: which generated trace it
// feeds, through which path. Engine workloads (boot == nil) drive one
// race.Engine in process; ingest workloads stream the trace from `clients`
// wire clients into a service booted per pass.
type scenario struct {
	name     string
	why      string   // one line for BENCHMARK.json: which layers it stresses
	program  string   // workload.Program the trace is generated from
	div      int      // scaleDiv: the paper's event count divided by this
	analyses []string // fan-out, in engine order
	parallel int      // race.WithParallelism; 0 = sequential engine
	passes   int      // timed passes of a run
	rounds   int      // engine workloads: sessions a pass runs one after the other (0 = 1)
	clients  int
	boot     func(dataDir string) (*service, error)
}

var stWDC = []string{"ST-WDC"}

// pipelineWorkers is the parallelism of every pipelined engine here.
func pipelineWorkers() int { return min(runtime.NumCPU(), 4) }

// wireClients is the number of concurrent client connections of the ingest
// workloads: one per core, two at most, all from this one process.
func wireClients() int { return min(runtime.NumCPU(), 2) }

// workloads fixes each workload's work: events per pass (a pass takes
// 0.5–1.1 s on the 2-core sandbox) and passes per run (12–15 s of them, so
// that three set-ups and the passes stay near 20 s: the acceptance driver
// makes 114 runs in 57 minutes). Generated traces are kept to 7 M events:
// first-touch page faults make bigger heaps slow and erratic to set up here.
func workloads() []*scenario {
	return []*scenario{
		{name: "detect-flat",
			why:     "avrora-like trace, 6% of accesses under a lock, one ST-WDC engine: epoch/ownership fast paths, engine dispatch and the checker do the work; CCS and vector-clock joins almost none",
			program: "avrora", div: 200, analyses: stWDC, rounds: 2, passes: 22},
		{name: "detect-nested",
			why:     "xalan-like trace, 38% non-same-epoch accesses nearly all under 2+ locks, same engine: CS lists, vector-clock joins, sync state and allocation dominate; dispatch is a small share",
			program: "xalan", div: 100, analyses: stWDC, rounds: 2, passes: 12},
		{name: "fanout15-par",
			why:     "h2-like sync-dense trace through all 15 Table 1 cells on the parallel pipeline: rings, workers and every analysis package; wall time is set by the slowest shard",
			program: "h2", div: 4000, analyses: race.Detectors(), parallel: pipelineWorkers(), passes: 14},
		{name: "ingest-direct",
			why:     "two wire clients over loopback TCP into one in-memory server, cheap ST-WDC analysis: wire codec, TCP hop and session queue are about half the CPU; bypasses journal and router",
			program: "avrora", div: 200, analyses: stWDC, clients: wireClients(), passes: 22,
			boot: func(string) (*service, error) { return bootServer("", nil) }},
		{name: "ingest-fleet-durable",
			why:     "same clients through the fleet router to two journaling backends with an fsync per flush barrier: adds router re-encode, second TCP hop and the racelog append/sync path",
			program: "avrora", div: 400, analyses: stWDC, clients: wireClients(), passes: 14,
			boot: func(dir string) (*service, error) { return bootFleet(dir, 2) }},
	}
}

func workloadByName(name string) (*scenario, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// quickDiv shrinks every trace for --quick runs and tests.
const quickDiv = 50

// generate builds and checks a program's trace. The program under test
// only ever sees the resulting events; the seed goes nowhere else.
func generate(program string, div int, seed int64) (workload.Program, *race.Trace, error) {
	prog, ok := workload.ProgramByName(program)
	if !ok {
		return prog, nil, fmt.Errorf("unknown program %q", program)
	}
	tr := prog.Generate(div, seed)
	if err := trace.Check(tr); err != nil {
		return prog, nil, fmt.Errorf("generated %s trace is ill-formed: %w", program, err)
	}
	return prog, tr, nil
}

// prepared is a workload with its inputs and expectations in hand.
type prepared struct {
	w       *scenario
	tr      *race.Trace
	oracle  *oracle
	dataDir string
	passes  int // passes run so far; names each pass's journal directory
}

func (w *scenario) prepare(seed int64, quick bool, dataDir string) (*prepared, error) {
	div := w.div
	if quick {
		div *= quickDiv
	}
	prog, tr, err := generate(w.program, div, seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(prog, tr, w.analyses)
	if err != nil {
		return nil, err
	}
	return &prepared{w: w, tr: tr, oracle: o, dataDir: dataDir}, nil
}

// sessions is how many pass-sessions (operations) one pass attempts:
// concurrent wire clients, or engine sessions one after the other.
func (p *prepared) sessions() int { return max(1, p.w.clients, p.w.rounds) }

// events is the fixed amount of work in one pass.
func (p *prepared) events() int { return p.sessions() * len(p.tr.Events) }

// passCtx carries what a pass reports besides its cost: the spans of a
// traced run, the end-of-feed hook of the live-heap pass, and the time each
// chunk took from hand-over to barrier.
type passCtx struct {
	rec    *recorder
	parent int    // span the pass's calls hang under
	pass   int    // shared by every span of the pass
	probe  func() // runs once at end-of-feed, before any Close; may be nil
	// verify, when a ledger rung sets it, checks the rung's output after
	// the measured region has ended.
	verify func() error
	// later holds teardown (stop a service, delete its journals) until the
	// measured region has ended; finish runs it, last registered first.
	later []func()

	mu   sync.Mutex
	acks []float64 // ms
}

func (c *passCtx) begin(name string) int { return c.rec.begin(name, c.parent, c.pass) }
func (c *passCtx) end(id int)            { c.rec.end(id) }

func (c *passCtx) afterwards(fn func()) { c.later = append(c.later, fn) }

func (c *passCtx) finish() {
	for i := len(c.later) - 1; i >= 0; i-- {
		c.later[i]()
	}
	c.later = nil
}

func (c *passCtx) addAcks(acks []float64) {
	c.mu.Lock()
	c.acks = append(c.acks, acks...)
	c.mu.Unlock()
}

// sessionOut is what one pass-session produced: its report (engine
// workloads) or report bytes (wire workloads), or the error that ended it.
type sessionOut struct {
	report *race.Report
	doc    []byte
	err    error
}

// pass runs the workload once — engine or service built inside, every
// session fed to its end and closed — and returns one result per session.
// Teardown is left with c for after the measured region, and checking the
// results is verify's job, also outside it: the oracle must not add its own
// JSON encoding to the cost of a pass.
func (p *prepared) pass(c *passCtx) []sessionOut {
	p.passes++
	outs := make([]sessionOut, p.sessions())
	if p.w.boot == nil {
		for i := range outs {
			outs[i].report, outs[i].err = runEngine(c, p.tr, p.engineOptions()...)
			c.probe = nil // the live-heap reading belongs to the first session, built on the collected heap
		}
		return outs
	}
	dir := filepath.Join(p.dataDir, fmt.Sprintf("pass-%d", p.passes))
	c.afterwards(func() { os.RemoveAll(dir) })
	sp := c.begin("service.boot")
	svc, err := p.w.boot(dir)
	c.end(sp)
	if err != nil {
		for i := range outs {
			outs[i].err = err
		}
		return outs
	}
	c.afterwards(svc.stop)
	docs, errs := runClients(c, svc.addr, p.tr, p.w.clients, nil)
	for i := range outs {
		outs[i] = sessionOut{doc: docs[i], err: errs[i]}
	}
	return outs
}

// verify holds every session of a pass to the oracle and returns how many
// failed, with the last failure.
func (p *prepared) verify(outs []sessionOut) (failed int, err error) {
	for _, out := range outs {
		e := out.err
		switch {
		case e != nil:
		case out.report != nil:
			e = p.oracle.check(out.report)
		default:
			e = p.oracle.checkJSON(out.doc)
		}
		if e != nil {
			failed++
			err = e
		}
	}
	return failed, err
}

func (p *prepared) engineOptions() []race.Option {
	if len(p.w.analyses) == 1 && p.w.parallel == 0 {
		return nil // race.NewEngine(): the recommended ST-WDC configuration
	}
	return []race.Option{race.WithAnalysisNames(p.w.analyses...), race.WithParallelism(p.w.parallel)}
}

// chunks calls fn on successive chunkEvents-sized runs of evs.
func chunks(evs []race.Event, fn func([]race.Event) error) error {
	for lo := 0; lo < len(evs); lo += chunkEvents {
		if err := fn(evs[lo:min(lo+chunkEvents, len(evs))]); err != nil {
			return err
		}
	}
	return nil
}

// runEngine feeds tr to a fresh engine in chunks, waiting for the barrier
// after each, and closes it.
func runEngine(c *passCtx, tr *race.Trace, opts ...race.Option) (*race.Report, error) {
	sp := c.begin("engine.new")
	eng, err := race.NewEngine(opts...)
	c.end(sp)
	if err != nil {
		return nil, err
	}
	acks := make([]float64, 0, len(tr.Events)/chunkEvents+1)
	err = chunks(tr.Events, func(evs []race.Event) error {
		t0 := time.Now()
		sp := c.begin("engine.feed")
		err := eng.FeedBatch(evs)
		c.end(sp)
		if err == nil {
			sp = c.begin("engine.sync")
			err = eng.Sync()
			c.end(sp)
		}
		acks = append(acks, ms(time.Since(t0)))
		return err
	})
	if err != nil {
		eng.Abort()
		return nil, err
	}
	c.addAcks(acks)
	if c.probe != nil {
		c.probe()
	}
	sp = c.begin("engine.close")
	defer c.end(sp)
	return eng.Close()
}

// runClients streams tr from n concurrent wire clients to addr: each dials,
// opens a session, hands over chunk after chunk waiting for every flush
// ack, and — once all of them have reached end-of-feed — closes for its
// report bytes. Results are per client.
func runClients(c *passCtx, addr string, tr *race.Trace, n int, tracer *tracing.Tracer) ([][]byte, []error) {
	docs, errs := make([][]byte, n), make([]error, n)
	clients := make([]*server.Client, n)
	sessions := make([]*server.RemoteSession, n)
	each := func(fn func(i int) error) {
		var wg sync.WaitGroup
		for i := range n {
			if errs[i] != nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = fn(i)
			}()
		}
		wg.Wait()
	}
	defer func() {
		for _, client := range clients {
			if client != nil {
				client.Close()
			}
		}
	}()
	each(func(i int) (err error) {
		sp := c.begin("client.open")
		if clients[i], err = server.Dial(addr); err == nil {
			clients[i].SetTracer(tracer)
			sessions[i], err = clients[i].Open(server.SessionConfig{})
		}
		c.end(sp)
		if err != nil {
			return err
		}
		acks := make([]float64, 0, len(tr.Events)/chunkEvents+1)
		err = chunks(tr.Events, func(evs []race.Event) error {
			t0 := time.Now()
			sp := c.begin("client.flush")
			err := sessions[i].FeedBatch(evs)
			if err == nil {
				err = sessions[i].Flush()
			}
			c.end(sp)
			acks = append(acks, ms(time.Since(t0)))
			return err
		})
		c.addAcks(acks)
		return err
	})
	if c.probe != nil {
		c.probe()
	}
	each(func(i int) (err error) {
		sp := c.begin("client.close")
		docs[i], err = sessions[i].CloseJSON()
		c.end(sp)
		return err
	})
	return docs, errs
}
