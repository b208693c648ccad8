package workload

import (
	"math/rand"

	"repro/internal/trace"
)

// RandomConfig parameterizes the randomized trace generator used by the
// cross-analysis property tests. Generation simulates a scheduler over
// per-thread state machines, so output traces are well formed by
// construction (block-structured locking, fork-before-run, join-after-end).
type RandomConfig struct {
	Seed      int64
	Threads   int
	Vars      int
	Locks     int
	Volatiles int
	Events    int // approximate event budget

	// MaxDepth bounds lock nesting (default 3).
	MaxDepth int
	// PAcquire, PRelease, PVolatile, PWrite tune the operation mix; they
	// default to a mix that exercises every analysis case.
	PAcquire, PRelease, PVolatile float64
	PWrite                        float64
	// ForkJoin adds a structured fork/join phase: thread 0 forks all other
	// threads at the start and joins them at the end.
	ForkJoin bool
}

func (c RandomConfig) withDefaults() RandomConfig {
	if c.Threads <= 0 {
		c.Threads = 3
	}
	if c.Vars <= 0 {
		c.Vars = 4
	}
	if c.Locks <= 0 {
		c.Locks = 2
	}
	if c.Events <= 0 {
		c.Events = 200
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.PAcquire == 0 {
		c.PAcquire = 0.15
	}
	if c.PRelease == 0 {
		c.PRelease = 0.15
	}
	if c.PVolatile == 0 && c.Volatiles > 0 {
		c.PVolatile = 0.05
	}
	if c.PWrite == 0 {
		c.PWrite = 0.4
	}
	return c
}

// Random generates a pseudo-random well-formed trace. The same config
// (including Seed) always yields the same trace.
func Random(cfg RandomConfig) *trace.Trace {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	g := &sched{
		r:         r,
		threads:   cfg.Threads,
		lockOwner: make([]int, cfg.Locks),
		held:      make([][]uint32, cfg.Threads),
		active:    make([]bool, cfg.Threads),
	}
	for i := range g.lockOwner {
		g.lockOwner[i] = -1
	}

	if cfg.ForkJoin {
		g.active[0] = true
		for t := 1; t < cfg.Threads; t++ {
			g.emit(0, trace.OpFork, uint32(t), 0)
			g.active[t] = true
		}
	} else {
		for t := range g.active {
			g.active[t] = true
		}
	}

	for len(g.events) < cfg.Events {
		t := g.pickThread()
		if t < 0 {
			break
		}
		g.step(t, cfg)
	}
	// Drain: release all held locks so the trace stays well formed.
	for t := 0; t < cfg.Threads; t++ {
		for len(g.held[t]) > 0 {
			m := g.held[t][len(g.held[t])-1]
			g.release(t, m)
		}
	}
	if cfg.ForkJoin {
		for t := 1; t < cfg.Threads; t++ {
			g.emit(0, trace.OpJoin, uint32(t), 0)
		}
	}

	return trace.MustCheck(&trace.Trace{Events: g.events})
}

type sched struct {
	r         *rand.Rand
	threads   int
	events    []trace.Event
	lockOwner []int // -1 free
	held      [][]uint32
	active    []bool
}

func (g *sched) emit(t int, op trace.Op, targ uint32, loc trace.Loc) {
	g.events = append(g.events, trace.Event{T: trace.Tid(t), Op: op, Targ: targ, Loc: loc})
}

// pickThread chooses a random runnable thread (active; a thread is always
// runnable here because acquire attempts on held locks are simply skipped).
func (g *sched) pickThread() int {
	start := g.r.Intn(g.threads)
	for i := 0; i < g.threads; i++ {
		t := (start + i) % g.threads
		if g.active[t] {
			return t
		}
	}
	return -1
}

// loc derives a synthetic static location from the operation so that
// distinct (thread, op, target) combinations read as distinct program
// sites, giving the static-race dedup something meaningful to chew on.
func accessLoc(t int, write bool, x uint32) trace.Loc {
	w := uint32(0)
	if write {
		w = 1
	}
	return trace.Loc(1 + uint32(t)<<16 | w<<15 | x)
}

func (g *sched) step(t int, cfg RandomConfig) {
	p := g.r.Float64()
	switch {
	case p < cfg.PAcquire && len(g.held[t]) < cfg.MaxDepth:
		m := uint32(g.r.Intn(cfg.Locks))
		if g.lockOwner[m] == -1 {
			g.lockOwner[m] = t
			g.held[t] = append(g.held[t], m)
			g.emit(t, trace.OpAcquire, m, 0)
		}
	case p < cfg.PAcquire+cfg.PRelease && len(g.held[t]) > 0:
		// Block-structured: release the innermost lock.
		m := g.held[t][len(g.held[t])-1]
		g.release(t, m)
	case p < cfg.PAcquire+cfg.PRelease+cfg.PVolatile && cfg.Volatiles > 0:
		v := uint32(g.r.Intn(cfg.Volatiles))
		if g.r.Intn(2) == 0 {
			g.emit(t, trace.OpVolatileRead, v, 0)
		} else {
			g.emit(t, trace.OpVolatileWrite, v, 0)
		}
	default:
		x := uint32(g.r.Intn(cfg.Vars))
		write := g.r.Float64() < cfg.PWrite
		op := trace.OpRead
		if write {
			op = trace.OpWrite
		}
		g.emit(t, op, x, accessLoc(t, write, x))
	}
}

func (g *sched) release(t int, m uint32) {
	g.lockOwner[m] = -1
	g.held[t] = g.held[t][:len(g.held[t])-1]
	g.emit(t, trace.OpRelease, m, 0)
}
