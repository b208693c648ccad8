package workload

import (
	"math"
	"math/rand"

	"repro/internal/trace"
)

// Program describes one synthetic workload calibrated to a DaCapo benchmark
// from the paper's Table 2 (run-time characteristics) and Table 7 (race
// counts). See DESIGN.md §1 for why this substitution preserves the
// evaluation's shape: the analyses consume only the event stream, so
// matching thread counts, the non-same-epoch access (NSEA) fraction, the
// locks-held-at-NSEA distribution, and the racy-site mix reproduces the
// per-event costs the paper measures.
type Program struct {
	Name string
	// Threads is the paper's total created threads (Table 2 #Thr).
	Threads int
	// PaperEventsM is the paper's total event count in millions.
	PaperEventsM float64
	// NSEAFrac is NSEAs / all events from Table 2.
	NSEAFrac float64
	// Held[k] is the fraction of NSEAs executed holding ≥ k+1 locks.
	Held [3]float64

	// Racy static sites by the strongest relation that detects them
	// (Table 7's statically distinct counts, unoptimized column):
	// HBSites race under every relation; WCPSites additionally under
	// WCP/DC/WDC; DCSites only under DC/WDC; WDCSites only under WDC.
	HBSites, WCPSites, DCSites, WDCSites int
	// Repeats is how many dynamic instances of each site to inject,
	// shaping Table 7's dynamic-vs-static ratio.
	Repeats int
}

// Programs lists the ten evaluated DaCapo workloads with parameters from
// Tables 2 and 7. (tomcat's per-relation counts are roughly equal in the
// paper, so all of its sites are HB sites; its site count dominates its
// scaled-down trace: see its NSEAs in racebench -table 2.)
var Programs = []Program{
	{Name: "avrora", Threads: 7, PaperEventsM: 1400, NSEAFrac: 0.100, Held: [3]float64{0.0589, 0.0005, 0.0001}, HBSites: 6, Repeats: 50},
	{Name: "batik", Threads: 7, PaperEventsM: 160, NSEAFrac: 0.036, Held: [3]float64{0.461, 0.0005, 0.0003}, Repeats: 1},
	{Name: "h2", Threads: 10, PaperEventsM: 3800, NSEAFrac: 0.079, Held: [3]float64{0.828, 0.801, 0.0017}, HBSites: 13, Repeats: 6},
	{Name: "jython", Threads: 2, PaperEventsM: 730, NSEAFrac: 0.233, Held: [3]float64{0.0382, 0.0023, 0.0005}, HBSites: 21, WCPSites: 1, DCSites: 9, Repeats: 1},
	{Name: "luindex", Threads: 3, PaperEventsM: 400, NSEAFrac: 0.1025, Held: [3]float64{0.258, 0.254, 0.253}, HBSites: 1, Repeats: 1},
	{Name: "lusearch", Threads: 10, PaperEventsM: 1400, NSEAFrac: 0.100, Held: [3]float64{0.0379, 0.0039, 0.0005}, Repeats: 1},
	{Name: "pmd", Threads: 9, PaperEventsM: 200, NSEAFrac: 0.0395, Held: [3]float64{0.0113, 0.0002, 0.0001}, HBSites: 6, DCSites: 4, Repeats: 3},
	{Name: "sunflow", Threads: 17, PaperEventsM: 9700, NSEAFrac: 0.00036, Held: [3]float64{0.0078, 0.0005, 0.0001}, HBSites: 6, WCPSites: 12, DCSites: 1, Repeats: 2},
	{Name: "tomcat", Threads: 37, PaperEventsM: 49, NSEAFrac: 0.224, Held: [3]float64{0.140, 0.0845, 0.0395}, HBSites: 585, Repeats: 3},
	{Name: "xalan", Threads: 9, PaperEventsM: 630, NSEAFrac: 0.381, Held: [3]float64{0.999, 0.997, 0.0127}, HBSites: 8, WCPSites: 55, DCSites: 11, Repeats: 20},
}

// ProgramByName returns the workload with the given name.
func ProgramByName(name string) (Program, bool) {
	for _, p := range Programs {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// ExpectedStatic returns the statically distinct race count the generator
// seeds for a relation ("HB", "WCP", "DC", "WDC").
func (p Program) ExpectedStatic(rel string) int {
	switch rel {
	case "HB":
		return p.HBSites
	case "WCP":
		return p.HBSites + p.WCPSites
	case "DC":
		return p.HBSites + p.WCPSites + p.DCSites
	default:
		return p.HBSites + p.WCPSites + p.DCSites + p.WDCSites
	}
}

// refScaleDiv is the scale divisor the Repeats calibration refers to (the
// benchmark harness default).
const refScaleDiv = 4000

// Background structure constants.
const (
	bgLocks        = 16 // background lock pool
	sharedPerLock  = 8  // shared variables guarded by each background lock
	privatePerThr  = 64 // thread-private variable pool
	classEvents    = 4  // classes initialized at startup
	volatilePool   = 4
	volatileChance = 0.02 // fraction of sessions replaced by a volatile op
)

// Generate produces the workload's trace with the paper's event count
// divided by scaleDiv. The same (program, scaleDiv, seed) always yields the
// same trace.
func (p Program) Generate(scaleDiv int, seed int64) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	target := int(p.PaperEventsM * 1e6 / float64(scaleDiv))
	if target < 2000 {
		target = 2000
	}

	// Repeats is calibrated for the default benchmark scale (1/4000);
	// dynamic race instances scale with the trace like everything else.
	reps := p.Repeats * refScaleDiv / scaleDiv
	if reps < 1 {
		reps = 1
	}

	g := newDacapoGen(p, r)
	g.prologue()
	inj := g.plannedInjections(reps)

	// Session shape from the calibration model (DESIGN.md): a session
	// acquires d locks (d sampled from the Held distribution), performs A
	// accesses of which the first touch of each variable is an NSEA, and
	// releases. Solve for session length A and fresh-variable probability q
	// so that NSEAs/events ≈ NSEAFrac. The injected racy accesses are all
	// NSEAs themselves (they are part of the real programs' NSEA budget
	// too), so the background target is what remains after subtracting
	// them — this matters for tomcat, whose racy sites are a large share of
	// its comparatively small trace.
	f := p.NSEAFrac
	injEv, injNSEA := g.injectionEvents(inj), g.injectionNSEAs(inj)
	// Ensure the trace is long enough that the injected NSEAs fit within
	// the program's NSEA budget (relevant for tomcat, whose many racy
	// sites dwarf its small trace at aggressive scale-downs).
	if minT := int(float64(injNSEA)/p.NSEAFrac) + 1; target < minT {
		target = minT
	}
	if bg := target - injEv; bg > 0 {
		f = (f*float64(target) - float64(injNSEA)) / float64(bg)
	}
	if f < 0.0005 {
		f = 0.0005
	}
	if f > 0.95 {
		f = 0.95
	}
	dMean := p.Held[0] + p.Held[1] + p.Held[2]
	// Sessions are at least 40 accesses long so that lock operations stay a
	// realistic fraction of the event stream (real critical sections
	// contain many accesses); programs with very low NSEA fractions need
	// longer sessions still so one fresh access per session suffices.
	a := int(math.Round(1.2 / f))
	if a < 40 {
		a = 40
	}
	if a > 4000 {
		a = 4000
	}
	q := (f*(2*dMean+float64(a)) - 1) / float64(a-1)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	g.sessionLen = a
	g.freshProb = q
	// Spread injections evenly through the background sessions; when the
	// trace has fewer sessions than injections, batch several injections
	// per session slot instead of stretching the trace.
	sessions := (target - injEv) / (a + 2)
	if sessions < 1 {
		sessions = 1
	}
	gap, perSlot := 1, 1
	if len(inj) > 0 {
		if sessions >= len(inj) {
			gap = sessions / len(inj)
		} else {
			perSlot = (len(inj) + sessions - 1) / sessions
		}
	}
	nextInj := 0
	for s := 0; len(g.events) < target || nextInj < len(inj); s++ {
		if nextInj < len(inj) && s%gap == 0 {
			for k := 0; k < perSlot && nextInj < len(inj); k++ {
				g.inject(inj[nextInj])
				nextInj++
			}
		}
		g.session()
	}
	g.epilogue()

	return trace.MustCheck(&trace.Trace{Events: g.events})
}

// siteKind distinguishes the injected racy patterns.
type siteKind int

const (
	siteHB  siteKind = iota // adjacent unsynchronized conflicting writes
	siteWCP                 // Figure 1 pattern: non-conflicting critical sections
	siteDC                  // Figure 2 pattern: WCP orders via HB composition, DC does not
	siteWDC                 // Figure 3 pattern: only rule (b) orders the accesses
)

// injection is one dynamic instance of a racy site.
type injection struct {
	kind siteKind
	loc  trace.Loc // the site's unique detecting program location
	// locks fixed per site; the race variable is fresh per instance.
	m, n uint32
	y, z uint32
	// hbLocks are the disjoint per-thread lock sets of an HB site whose
	// writers follow an inconsistent lock discipline; da/db are the planned
	// nesting depths of this instance's two accesses, sampled from the
	// program's locks-held distribution so that injected NSEAs match the
	// Table 2 calibration.
	hbLocks [6]uint32
	da, db  uint8
}

type dacapoGen struct {
	p          Program
	r          *rand.Rand
	events     []trace.Event
	sessionLen int
	freshProb  float64

	nextVar  int
	nextLock int

	privVars  [][]uint32 // per thread
	bgLockIDs []uint32
	lockVars  [][]uint32 // shared vars per background lock

	rrThread int
}

func newDacapoGen(p Program, r *rand.Rand) *dacapoGen {
	g := &dacapoGen{p: p, r: r}
	g.privVars = make([][]uint32, p.Threads)
	for t := range g.privVars {
		g.privVars[t] = g.newVars(privatePerThr)
	}
	g.bgLockIDs = make([]uint32, bgLocks)
	g.lockVars = make([][]uint32, bgLocks)
	for i := range g.bgLockIDs {
		g.bgLockIDs[i] = g.newLock()
		g.lockVars[i] = g.newVars(sharedPerLock)
	}
	return g
}

func (g *dacapoGen) newVars(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(g.nextVar)
		g.nextVar++
	}
	return out
}

func (g *dacapoGen) newLock() uint32 {
	id := uint32(g.nextLock)
	g.nextLock++
	return id
}

func (g *dacapoGen) emit(t int, op trace.Op, targ uint32, loc trace.Loc) {
	g.events = append(g.events, trace.Event{T: trace.Tid(t), Op: op, Targ: targ, Loc: loc})
}

// prologue forks all worker threads from thread 0 and initializes classes,
// mirroring JVM startup.
func (g *dacapoGen) prologue() {
	for c := 0; c < classEvents; c++ {
		g.emit(0, trace.OpClassInit, uint32(c), 0)
	}
	for t := 1; t < g.p.Threads; t++ {
		g.emit(0, trace.OpFork, uint32(t), 0)
		g.emit(t, trace.OpClassAccess, uint32(t%classEvents), 0)
	}
}

func (g *dacapoGen) epilogue() {
	for t := 1; t < g.p.Threads; t++ {
		g.emit(0, trace.OpJoin, uint32(t), 0)
	}
}

// sampleDepth draws a lock-nesting depth from the Held distribution.
func (g *dacapoGen) sampleDepth() int {
	u := g.r.Float64()
	switch {
	case u < g.p.Held[2]:
		return 3
	case u < g.p.Held[1]:
		return 2
	case u < g.p.Held[0]:
		return 1
	default:
		return 0
	}
}

// session emits one background session for the next thread (round-robin
// with jitter): acquire d nested locks, run sessionLen accesses (fresh
// variables with probability freshProb, otherwise re-touch the previous
// one), release. Depth-0 sessions touch only thread-private variables, so
// the background is race-free by construction.
func (g *dacapoGen) session() {
	t := g.rrThread
	g.rrThread = (g.rrThread + 1 + g.r.Intn(2)) % g.p.Threads

	if g.r.Float64() < volatileChance {
		v := uint32(g.r.Intn(volatilePool))
		if g.r.Intn(2) == 0 {
			g.emit(t, trace.OpVolatileRead, v, 0)
		} else {
			g.emit(t, trace.OpVolatileWrite, v, 0)
		}
		return
	}

	d := g.sampleDepth()
	// Choose d distinct background locks, ordered by id to avoid deadlocked
	// shapes (irrelevant for trace generation but realistic).
	lockIdx := g.r.Perm(bgLocks)[:d]
	for i := 1; i < len(lockIdx); i++ {
		for j := i; j > 0 && lockIdx[j] < lockIdx[j-1]; j-- {
			lockIdx[j], lockIdx[j-1] = lockIdx[j-1], lockIdx[j]
		}
	}
	for _, li := range lockIdx {
		g.emit(t, trace.OpAcquire, g.bgLockIDs[li], 0)
	}
	// Variable pool for this session: private unless we hold a lock, in
	// which case the innermost lock's shared pool mixes in.
	var shared []uint32
	if d > 0 {
		shared = g.lockVars[lockIdx[d-1]]
	}
	var cur uint32
	haveCur := false
	for i := 0; i < g.sessionLen; i++ {
		freshPick := !haveCur || g.r.Float64() < g.freshProb
		if freshPick {
			if shared != nil && g.r.Intn(4) == 0 {
				cur = shared[g.r.Intn(len(shared))]
			} else {
				pv := g.privVars[t]
				cur = pv[g.r.Intn(len(pv))]
			}
			haveCur = true
		}
		// Only the first touch of a variable may be a write: a write after
		// same-epoch reads would be a second non-same-epoch access to the
		// variable and skew the Table 2 calibration (one NSEA per distinct
		// variable per epoch).
		write := freshPick && g.r.Float64() < 0.3
		op := trace.OpRead
		if write {
			op = trace.OpWrite
		}
		g.emit(t, op, cur, accessLoc(t, write, cur))
	}
	for i := len(lockIdx) - 1; i >= 0; i-- {
		g.emit(t, trace.OpRelease, g.bgLockIDs[lockIdx[i]], 0)
	}
}

// plannedInjections builds the full schedule of racy-site instances:
// each site appears Repeats times with a fresh race variable per instance
// (so instances race pairwise-independently and each site contributes
// exactly one statically distinct race).
func (g *dacapoGen) plannedInjections(reps int) []injection {
	var sites []injection
	mk := func(kind siteKind, count int) {
		for i := 0; i < count; i++ {
			inj := injection{kind: kind, loc: trace.Loc(0x40000000 + len(sites))}
			switch kind {
			case siteHB:
				// HB-racing accesses hold locks at the program's usual rate
				// (an inconsistent lock discipline: the writers' lock sets
				// are disjoint). Allocate the per-site lock pools only if
				// the program holds locks at all.
				if g.p.Held[0] > 0 {
					for j := range inj.hbLocks {
						inj.hbLocks[j] = g.newLock()
					}
				}
			case siteWCP:
				inj.m = g.newLock()
			case siteDC:
				// Three locks: the 2-thread variant needs a third hand-off.
				inj.m, inj.n, inj.z = g.newLock(), g.newLock(), g.newLock()
			case siteWDC:
				inj.m, inj.n = g.newLock(), g.newLock() // m + the o/p sync locks
				inj.z = g.newLock()
			}
			sites = append(sites, inj)
		}
	}
	mk(siteHB, g.p.HBSites)
	mk(siteWCP, g.p.WCPSites)
	mk(siteDC, g.p.DCSites)
	mk(siteWDC, g.p.WDCSites)

	out := make([]injection, 0, len(sites)*reps)
	for rep := 0; rep < reps; rep++ {
		for _, s := range sites {
			if s.kind == siteHB && s.hbLocks[0] != s.hbLocks[1] {
				s.da = uint8(g.sampleDepth())
				s.db = uint8(g.sampleDepth())
			}
			out = append(out, s)
		}
	}
	// Shuffle so sites interleave across the run.
	g.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// injectionNSEAs counts the non-same-epoch accesses an injection schedule
// contributes (every injected access is an NSEA: race variables are fresh
// per instance and the helper-variable accesses land in fresh epochs).
func (g *dacapoGen) injectionNSEAs(inj []injection) int {
	n := 0
	for _, s := range inj {
		switch s.kind {
		case siteHB:
			n += 2
		case siteWCP, siteDC:
			n += 4
		case siteWDC:
			n += 12
		}
	}
	return n
}

func (g *dacapoGen) injectionEvents(inj []injection) int {
	n := 0
	for _, s := range inj {
		switch s.kind {
		case siteHB:
			n += 2 + 2*(int(s.da)+int(s.db))
		case siteWCP:
			n += 8
		case siteDC:
			n += 14
		case siteWDC:
			n += 21
		}
	}
	return n
}

// pickThreads returns k distinct thread ids.
func (g *dacapoGen) pickThreads(k int) []int {
	if g.p.Threads >= k {
		return g.r.Perm(g.p.Threads)[:k]
	}
	// Degenerate (jython has 2 threads): reuse threads cyclically but keep
	// the racing pair distinct.
	out := make([]int, k)
	perm := g.r.Perm(g.p.Threads)
	for i := range out {
		out[i] = perm[i%len(perm)]
	}
	return out
}

// inject emits one dynamic instance of a racy site as an atomic block, with
// a fresh race variable. Patterns are the paper's Figures 1–3 plus a plain
// unsynchronized-write pair for HB sites; each uses dedicated locks and
// filler variables so the background cannot order the racing pair.
func (g *dacapoGen) inject(s injection) {
	v := g.newVars(1)[0]
	switch s.kind {
	case siteHB:
		th := g.pickThreads(2)
		a, b := th[0], th[1]
		for i := 0; i < int(s.da); i++ {
			g.emit(a, trace.OpAcquire, s.hbLocks[i], 0)
		}
		g.emit(a, trace.OpWrite, v, s.loc+1)
		for i := 0; i < int(s.db); i++ {
			g.emit(b, trace.OpAcquire, s.hbLocks[3+i], 0)
		}
		g.emit(b, trace.OpWrite, v, s.loc)
		for i := int(s.da) - 1; i >= 0; i-- {
			g.emit(a, trace.OpRelease, s.hbLocks[i], 0)
		}
		for i := int(s.db) - 1; i >= 0; i-- {
			g.emit(b, trace.OpRelease, s.hbLocks[3+i], 0)
		}
	case siteWCP:
		// Figure 1: rd(v) ≺HB wr(v) via the lock, but no relation edge.
		y := g.fresh()
		z := g.fresh()
		th := g.pickThreads(2)
		a, b := th[0], th[1]
		g.emit(a, trace.OpRead, v, s.loc+1)
		g.emit(a, trace.OpAcquire, s.m, 0)
		g.emit(a, trace.OpWrite, y, s.loc+2)
		g.emit(a, trace.OpRelease, s.m, 0)
		g.emit(b, trace.OpAcquire, s.m, 0)
		g.emit(b, trace.OpRead, z, s.loc+3)
		g.emit(b, trace.OpRelease, s.m, 0)
		g.emit(b, trace.OpWrite, v, s.loc)
	case siteDC:
		y := g.fresh()
		if g.p.Threads >= 3 {
			// Figure 2: the critical sections on m conflict (ordered by
			// rule (a)); WCP composes across the n hand-off by HB, DC does
			// not.
			th := g.pickThreads(3)
			a, b, c := th[0], th[1], th[2]
			g.emit(a, trace.OpRead, v, s.loc+1)
			g.emit(a, trace.OpAcquire, s.m, 0)
			g.emit(a, trace.OpWrite, y, s.loc+2)
			g.emit(a, trace.OpRelease, s.m, 0)
			g.emit(b, trace.OpAcquire, s.m, 0)
			g.emit(b, trace.OpRead, y, s.loc+3)
			g.emit(b, trace.OpRelease, s.m, 0)
			g.emit(b, trace.OpAcquire, s.n, 0)
			g.emit(b, trace.OpRelease, s.n, 0)
			g.emit(c, trace.OpAcquire, s.n, 0)
			g.emit(c, trace.OpRelease, s.n, 0)
			g.emit(c, trace.OpWrite, v, s.loc)
			break
		}
		// Two-thread DC-only variant (jython): the WCP ordering of rd(v)
		// before wr(v) needs HB composition twice — A hands off to B via
		// lock n, B's critical section on m conflicts with A's (a WCP edge
		// back to A), and A hands off to B again via lock z. DC, composing
		// only with program order, has no A→B edge at all.
		th := g.pickThreads(2)
		a, b := th[0], th[1]
		g.emit(a, trace.OpRead, v, s.loc+1)
		g.emit(a, trace.OpAcquire, s.n, 0)
		g.emit(a, trace.OpRelease, s.n, 0)
		g.emit(b, trace.OpAcquire, s.n, 0)
		g.emit(b, trace.OpRelease, s.n, 0)
		g.emit(b, trace.OpAcquire, s.m, 0)
		g.emit(b, trace.OpWrite, y, s.loc+2)
		g.emit(b, trace.OpRelease, s.m, 0)
		g.emit(a, trace.OpAcquire, s.m, 0)
		g.emit(a, trace.OpRead, y, s.loc+3)
		g.emit(a, trace.OpRelease, s.m, 0)
		g.emit(a, trace.OpAcquire, s.z, 0)
		g.emit(a, trace.OpRelease, s.z, 0)
		g.emit(b, trace.OpAcquire, s.z, 0)
		g.emit(b, trace.OpRelease, s.z, 0)
		g.emit(b, trace.OpWrite, v, s.loc)
	case siteWDC:
		// Figure 3: rule (b) orders T1's rel(m) before T3's rel(m); WDC,
		// which drops rule (b), reports a false race. Uses two sync-helper
		// locks (n = o, z = p) with per-site helper variables.
		o, pLock := s.n, s.z
		ov := g.fresh()
		pv := g.fresh()
		th := g.pickThreads(3)
		t1, t2, t3 := th[0], th[1], th[2]
		sync := func(t int, lk uint32, sv uint32) {
			g.emit(t, trace.OpAcquire, lk, 0)
			g.emit(t, trace.OpRead, sv, 0)
			g.emit(t, trace.OpWrite, sv, 0)
			g.emit(t, trace.OpRelease, lk, 0)
		}
		g.emit(t1, trace.OpAcquire, s.m, 0)
		sync(t1, o, ov)
		g.emit(t1, trace.OpRead, v, s.loc+1)
		g.emit(t1, trace.OpRelease, s.m, 0)
		sync(t2, o, ov)
		sync(t2, pLock, pv)
		g.emit(t3, trace.OpAcquire, s.m, 0)
		sync(t3, pLock, pv)
		g.emit(t3, trace.OpRelease, s.m, 0)
		g.emit(t3, trace.OpWrite, v, s.loc)
	}
}

// fresh allocates a new filler variable, used once per site instance so
// that instances of a site cannot order or race with each other.
func (g *dacapoGen) fresh() uint32 { return g.newVars(1)[0] }
