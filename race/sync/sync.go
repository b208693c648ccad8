// Package sync provides drop-in shadow synchronization primitives that
// record themselves: Mutex, RWMutex, WaitGroup, Once, and a typed channel
// Chan[T] that behave like their standard-library counterparts while
// lowering every operation onto the eight core trace operations the
// SmartTrack analyses consume (acquire/release, volatile read/write,
// fork/join, read/write). Real Go programs instrumented with these
// primitives become event sources for all of the paper's Table 1
// analyses — including fully online, during-execution detection when the
// bound Runtime has an attached Engine.
//
// An Env binds a race.Runtime; goroutine identity is carried by *G values
// handed out by Go, so no manual Tid plumbing is needed:
//
//	eng, _ := race.NewEngine(race.WithAnalysisNames("ST-WDC"),
//	    race.WithOnRace(func(r race.RaceInfo) { log.Println("race!", r) }))
//	env := sync.NewEnv(race.WithEngineAttached(eng))
//	root := env.Root()
//
//	var mu sync.Mutex
//	h := root.Go(func(g *sync.G) {
//	    mu.Lock(g)
//	    g.Write("counter")
//	    mu.Unlock(g)
//	})
//	h.Join(root)
//	report, _ := env.Finish()
//
// # The lowering contract
//
// Each primitive lowers onto core operations so that the recorded trace
// carries exactly the ordering the primitive guarantees (never less), and
// as little extra ordering as the core operation vocabulary allows.
// Missing ordering would make the analyses report false races on
// correctly synchronized programs, so where the vocabulary forces a
// choice the lowering errs on the side of extra ordering (documented
// below as v1 conservatism): extra ordering can only hide predictable
// races, never invent them.
//
//	Mutex.Lock     → acq(m)
//	Mutex.Unlock   → rel(m)
//	RWMutex.Lock   → acq(m); vwr(v)
//	RWMutex.Unlock → vwr(v); rel(m)
//	RWMutex.RLock  → vrd(v)
//	RWMutex.RUnlock→ vrd(v)
//	WaitGroup.Done → vwr(w)
//	WaitGroup.Wait → vrd(w)
//	Once.Do        → f's events; vwr(o)   (winner)
//	                 vrd(o)               (every caller, after f completed)
//	Chan (cap C>0):
//	  Send i        → vwr(c#slot), slot = i mod C
//	  Recv i        → vrd(c#slot)
//	Chan (cap 0):
//	  Send          → vwr(c#hand) … rendezvous … vrd(c#ack)
//	  Recv          → vrd(c#hand); vwr(c#ack)
//	Close           → vwr(c#close)
//	Recv (closed)   → vrd(c#close)
//	G.Go            → fork(child)
//	Handle.Join     → join(child)
//
// The analyses order a volatile read after every earlier conflicting
// volatile write, and a volatile write after every earlier conflicting
// access, of the same volatile; volatile reads are unordered with
// volatile reads. The lowerings exploit exactly that rule:
//
//   - RWMutex: reader sections are bracketed by volatile reads only, so
//     readers stay unordered with readers, while every reader is ordered
//     after the previous writer's Unlock (vwr→vrd) and every writer is
//     ordered after all previous readers' RUnlocks (vrd→vwr).
//   - WaitGroup: Done's vwr and Wait's vrd give the cumulative
//     release-acquire: everything before every Done is ordered before
//     everything after Wait.
//   - Chan: per-slot volatile pairs give send i ⊑ recv i (the value's
//     publication) and recv i ⊑ send i+cap (the buffer cell's reuse), and
//     nothing across distinct in-flight slots. Close's vwr publishes to
//     every receive that observes the close (vrd on the close slot).
//
// # v1 conservatism
//
//   - RWMutex writer sections are ordered with each other by the volatile
//     write pair (hard happens-before), not only by acq/rel — predictive
//     analyses therefore do not predict races between two writer
//     sections of the same RWMutex. Mutex sections have no such loss.
//   - WaitGroup Done operations are mutually ordered (volatile writes
//     conflict), though real Dones are not.
//   - Unbuffered channel operations on one channel are serialized by the
//     shadow implementation, so successive rendezvous on the same
//     channel are recorded totally ordered.
//
// # Contract with the Runtime
//
// A *G's methods (and primitive operations taking that *G) must be called
// from the goroutine the *G was created for — the same single-goroutine
// contract race.Runtime imposes on Tids. All primitives touching one Env
// must be driven by Gs of that Env. Misuse of a primitive (unlocking an
// unheld Mutex, sending on a closed Chan, negative WaitGroup counters)
// panics exactly like the standard library, because a real primitive
// backs every shadow one.
package sync

import (
	"repro/race"
)

// Env binds shadow primitives to a race.Runtime. With an attached engine
// or remote session (race.WithEngineAttached) the runtime feeds every
// committed event to the analyses as the program runs, and Finish returns
// the online report; without one, Snapshot/Analyze give the
// record-then-replay mode.
type Env struct {
	rt   *race.Runtime
	root *G
}

// NewEnv creates an Env over a fresh race.Runtime. Pass
// race.WithEngineAttached(eng) to analyze online while the program runs —
// eng a *race.Engine, or a race/server session to analyze remotely.
func NewEnv(opts ...race.RuntimeOption) *Env {
	return Bind(race.NewRuntime(opts...))
}

// Bind wraps an existing runtime in an Env. The runtime's main thread
// becomes the Env's root G.
func Bind(rt *race.Runtime) *Env {
	e := &Env{rt: rt}
	e.root = &G{env: e, tid: rt.Main()}
	return e
}

// Runtime returns the bound recorder.
func (e *Env) Runtime() *race.Runtime { return e.rt }

// Root returns the main goroutine's G. Its methods must be called from
// the goroutine that created the Env.
func (e *Env) Root() *G { return e.root }

// Go forks a goroutine from the root G (see G.Go). It must be called
// from the root goroutine.
func (e *Env) Go(fn func(*G)) *Handle { return e.root.Go(fn) }

// Snapshot returns the trace recorded so far (record-then-replay mode).
func (e *Env) Snapshot() (*race.Trace, error) { return e.rt.Snapshot() }

// Analyze snapshots the recording and runs the (rel, lvl) analysis.
func (e *Env) Analyze(rel race.Relation, lvl race.Level) (*race.Report, error) {
	return e.rt.Analyze(rel, lvl)
}

// Finish ends recording with an attached engine and returns its online
// report (see race.Runtime.Finish).
func (e *Env) Finish() (*race.Report, error) { return e.rt.Finish() }

// Err returns the first recording error, if any.
func (e *Env) Err() error { return e.rt.Err() }

// G is one recorded goroutine's identity: every shadow operation takes
// the *G of the goroutine performing it. A G's methods must be called
// only from that goroutine.
type G struct {
	env *Env
	tid race.Tid
}

// Env returns the G's environment.
func (g *G) Env() *Env { return g.env }

// Tid returns the G's recorded thread id.
func (g *G) Tid() race.Tid { return g.tid }

// Read records a read of the shared datum identified by key (any
// comparable value: a pointer, a string name, ...). The recorded source
// site is Read's caller.
func (g *G) Read(key any) { g.env.rt.ReadSkip(g.tid, key, 1) }

// Write records a write of the shared datum identified by key. The
// recorded source site is Write's caller.
func (g *G) Write(key any) { g.env.rt.WriteSkip(g.tid, key, 1) }

// Go starts fn on a new goroutine with its own recorded identity,
// recording the fork edge from g. The returned Handle joins the
// goroutine back into a parent.
func (g *G) Go(fn func(*G)) *Handle {
	child := &G{env: g.env, tid: g.env.rt.Go(g.tid)}
	h := &Handle{g: child, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		fn(child)
	}()
	return h
}

// Handle is a joinable reference to a goroutine started by G.Go.
type Handle struct {
	g    *G
	done chan struct{}
}

// Tid returns the goroutine's recorded thread id.
func (h *Handle) Tid() race.Tid { return h.g.tid }

// Join blocks until the goroutine's function has returned, then records
// the join edge into parent. Call it from parent's goroutine. After Join
// the child's events are ordered before everything parent does next —
// under every analysis.
func (h *Handle) Join(parent *G) {
	<-h.done
	parent.env.rt.Join(parent.tid, h.g.tid)
}
