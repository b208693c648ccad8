package analysis

import (
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Hook receives constraint-graph edges from an analysis (the "w/G"
// variants). src and dst are trace event indices; src < dst.
type Hook interface {
	Edge(src, dst int32)
}

// SyncState implements the synchronization handling shared by every
// analysis in the repository (§5.1): per-thread relation clocks, lock
// release→acquire edges for the HB-composing relations, fork/join,
// conflicting volatile accesses, and class initialization edges.
//
// The relation clock P is the clock race checks compare against. For HB, P
// is the HB clock itself. For WCP, P is the WCP clock and a second HB clock
// H is maintained for the left/right HB-composition rule: every WCP edge
// joins the *HB* time of its source into the target's P, and P propagates
// along all HB edges. For DC and WDC, P composes with program order only,
// so lock release→acquire edges do not propagate P.
//
// All analyses increment the executing thread's local clock after every
// synchronization operation, which the epoch same-epoch checks require
// (§5.1 applies this to the unoptimized analyses as well).
//
// All per-id tables grow on demand, so a SyncState can be built from a zero
// Spec before any events exist and consume an unbounded stream whose id
// spaces are discovered incrementally.
type SyncState struct {
	_   report.Pad
	Rel Relation

	// P is the relation clock per thread; P[t].Get(t) is t's local clock.
	P []*vc.VC
	// H is the HB clock per thread; nil unless Rel == WCP.
	H []*vc.VC

	lockP []*vc.VC // per-lock release clocks (HB and WCP only)
	lockH []*vc.VC

	volRP, volWP []*vc.VC // volatile last-readers / last-writer clocks
	volRH, volWH []*vc.VC

	clsP []*vc.VC // class-initialization clocks
	clsH []*vc.VC

	held [][]uint32 // per-thread stack of held locks, innermost last

	// selfP[t] is t's exportable self-knowledge under WCP: the largest own
	// component delivered to t by a relation edge. A WCP edge carrying
	// H_src with H_src(t) = c means t's events up to c are WCP-ordered
	// before the edge's source, and by right HB-composition before anything
	// reachable from t's subsequent HB edges — so c, unlike t's local
	// clock (which tracks only program order), may travel across lock
	// release→acquire edges. nil unless Rel == WCP.
	selfP []vc.Clock

	// Graph bookkeeping (hook != nil only for the "w/G" analyses).
	hook        Hook
	marks       []threadMark
	lastVolW    []int32 // last volatile-write event per volatile
	lastVolR    []int32 // last volatile-read event per volatile
	lastClsInit []int32
	_           report.Pad
}

// threadMark is a thread's graph bookkeeping: event indices, -1 for none.
type threadMark struct {
	last int32 // the thread's last event
	fork int32 // the fork event awaiting the thread's first event
}

// growMarks extends marks to n threads without events. OnEvent stores into
// the table per event, so its backing array keeps a Pad's worth of elements
// nothing touches on either side (see report.Pad).
func growMarks(marks []threadMark, n int) []threadMark {
	if n > cap(marks) {
		const slack = len(report.Pad{}) / 8
		buf := make([]threadMark, slack+2*n+slack)
		marks = buf[slack : slack+copy(buf[slack:], marks) : slack+2*n]
	}
	for len(marks) < n {
		marks = append(marks, threadMark{last: -1, fork: -1})
	}
	return marks
}

// NewSyncState builds synchronization state from capacity hints. The hints
// pre-size the tables; every table still grows on demand as new ids appear.
func NewSyncState(rel Relation, spec Spec) *SyncState {
	s := &SyncState{Rel: rel}
	s.growThreads(spec.Threads)
	s.growLocks(spec.Locks)
	s.growVolatiles(spec.Volatiles)
	s.growClasses(spec.Classes)
	return s
}

// Threads returns the number of threads observed so far.
func (s *SyncState) Threads() int { return len(s.P) }

// growThreads extends the per-thread tables to cover thread ids < n. Each
// new thread starts with local clock 1 in its own component, exactly as a
// pre-sized construction would have initialized it.
func (s *SyncState) growThreads(n int) {
	for t := len(s.P); t < n; t++ {
		p := vc.New(n)
		p.Set(vc.Tid(t), 1)
		s.P = append(s.P, p)
		if s.Rel == WCP {
			h := vc.New(n)
			h.Set(vc.Tid(t), 1)
			s.H = append(s.H, h)
			s.selfP = append(s.selfP, 0)
		}
		s.held = append(s.held, nil)
	}
	if s.hook != nil {
		s.marks = growMarks(s.marks, n)
	}
}

func (s *SyncState) growLocks(n int) {
	if s.Rel == HB || s.Rel == WCP {
		EnsureLen(&s.lockP, n)
		if s.Rel == WCP {
			EnsureLen(&s.lockH, n)
		}
	}
}

func (s *SyncState) growVolatiles(n int) {
	EnsureLen(&s.volRP, n)
	EnsureLen(&s.volWP, n)
	if s.Rel == WCP {
		EnsureLen(&s.volRH, n)
		EnsureLen(&s.volWH, n)
	}
	if s.hook != nil {
		GrowNeg(&s.lastVolW, n)
		GrowNeg(&s.lastVolR, n)
	}
}

func (s *SyncState) growClasses(n int) {
	EnsureLen(&s.clsP, n)
	if s.Rel == WCP {
		EnsureLen(&s.clsH, n)
	}
	if s.hook != nil {
		GrowNeg(&s.lastClsInit, n)
	}
}

// et ensures thread t's tables exist (ensure-thread).
func (s *SyncState) et(t trace.Tid) {
	if int(t) >= len(s.P) {
		s.growThreads(int(t) + 1)
	}
}

// Ensure makes thread t's tables exist. Analyses call it once at the top of
// Handle so that direct P[t]/H[t] indexing is safe even when t's first
// event is the one being handled.
func (s *SyncState) Ensure(t trace.Tid) { s.et(t) }

// SetHook enables constraint-graph edge recording.
func (s *SyncState) SetHook(h Hook, spec Spec) {
	s.hook = h
	s.marks = growMarks(nil, max(spec.Threads, len(s.P)))
	s.lastVolW = fillNeg(max(spec.Volatiles, len(s.volRP)))
	s.lastVolR = fillNeg(max(spec.Volatiles, len(s.volRP)))
	s.lastClsInit = fillNeg(max(spec.Classes, len(s.clsP)))
}

func fillNeg(n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = -1
	}
	return v
}

// GrowNeg grows *s to at least n elements, filling new slots with -1 (the
// "no event yet" sentinel of graph bookkeeping tables).
func GrowNeg(s *[]int32, n int) {
	if n <= len(*s) {
		return
	}
	old := len(*s)
	EnsureLen(s, n)
	for i := old; i < n; i++ {
		(*s)[i] = -1
	}
}

func (s *SyncState) edge(src int32, dst int32) {
	if s.hook != nil && src >= 0 {
		s.hook.Edge(src, dst)
	}
}

// OnEvent performs per-event graph bookkeeping. Engines call it first for
// every event (access or sync) when a hook is installed.
func (s *SyncState) OnEvent(t trace.Tid, idx int32) {
	if s.hook == nil {
		return
	}
	s.et(t)
	m := &s.marks[t]
	if m.fork >= 0 {
		s.hook.Edge(m.fork, idx)
		m.fork = -1
	}
	m.last = idx
}

// Held returns the locks currently held by t, innermost last. The returned
// slice aliases internal state; callers must not retain it across events.
func (s *SyncState) Held(t trace.Tid) []uint32 {
	s.et(t)
	return s.held[t]
}

// JoinP joins c into t's relation clock, absorbing any self-knowledge c
// carries (WCP only). Every join into P — relation edges and HB carrier
// edges alike — must go through JoinP so that exportable self-knowledge is
// never lost.
func (s *SyncState) JoinP(t trace.Tid, c *vc.VC) {
	if c == nil {
		return
	}
	s.et(t)
	s.P[t].Join(c)
	if s.selfP != nil {
		if g := c.Get(vc.Tid(t)); g > s.selfP[t] {
			s.selfP[t] = g
		}
	}
}

// Tick increments t's local clock on P (and H for WCP).
func (s *SyncState) Tick(t trace.Tid) {
	s.et(t)
	s.P[t].Tick(vc.Tid(t))
	if s.H != nil {
		s.H[t].Tick(vc.Tid(t))
	}
}

// PreAcquire applies the release→acquire edges of HB-composing relations
// (before rule (b) bookkeeping and before the tick).
func (s *SyncState) PreAcquire(t trace.Tid, m uint32) {
	s.et(t)
	if s.Rel == HB || s.Rel == WCP {
		s.growLocks(int(m) + 1)
	}
	if s.lockP != nil {
		s.JoinP(t, s.lockP[m])
	}
	if s.lockH != nil {
		s.H[t].Join(s.lockH[m])
	}
}

// PostAcquire records the lock as held and ticks.
func (s *SyncState) PostAcquire(t trace.Tid, m uint32) {
	s.et(t)
	s.held[t] = append(s.held[t], m)
	s.Tick(t)
}

// PostRelease stores the lock release clocks (HB-composing relations),
// removes the lock from the held set, and ticks. Engines call it after
// their rule (a)/(b) release processing.
func (s *SyncState) PostRelease(t trace.Tid, m uint32) {
	s.et(t)
	if s.Rel == HB || s.Rel == WCP {
		s.growLocks(int(m) + 1)
	}
	// The per-lock release clocks are overwritten in place: nothing retains
	// a reference to them (PreAcquire joins their contents immediately), so
	// reusing the existing vector avoids one or two heap clocks per release.
	if s.lockP != nil {
		cp := s.lockP[m]
		if cp == nil {
			cp = vc.New(0)
			s.lockP[m] = cp
		}
		cp.CopyFrom(s.P[t])
		if s.Rel == WCP {
			// The release→acquire edge is an HB edge, not a WCP edge: it
			// carries the releasing thread's WCP-before knowledge (right
			// HB-composition) but must not export the thread's own local
			// clock, which tracks only program order — otherwise WCP would
			// collapse into HB. What it may export is selfP: self-knowledge
			// delivered by earlier relation edges.
			cp.Set(vc.Tid(t), s.selfP[t])
		}
	}
	if s.lockH != nil {
		ch := s.lockH[m]
		if ch == nil {
			ch = vc.New(0)
			s.lockH[m] = ch
		}
		ch.CopyFrom(s.H[t])
	}
	h := s.held[t]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i] == m {
			s.held[t] = append(h[:i], h[i+1:]...)
			break
		}
	}
	s.Tick(t)
}

// HandleOther processes the non-lock synchronization events (fork, join,
// volatiles, class events) for every relation, including the graph's hard
// edges. It returns true if the event was one of those kinds.
func (s *SyncState) HandleOther(e trace.Event, idx int32) bool {
	t := e.T
	s.et(t)
	switch e.Op {
	case trace.OpFork:
		child := trace.Tid(e.Targ)
		s.et(child)
		s.JoinP(child, s.P[t])
		if s.H != nil {
			s.H[child].Join(s.H[t])
		}
		if s.hook != nil {
			s.marks[child].fork = idx
		}
	case trace.OpJoin:
		child := trace.Tid(e.Targ)
		s.et(child)
		s.JoinP(t, s.P[child])
		if s.H != nil {
			s.H[t].Join(s.H[child])
		}
		if s.hook != nil {
			s.edge(s.marks[child].last, idx)
		}
	case trace.OpVolatileRead:
		v := e.Targ
		s.growVolatiles(int(v) + 1)
		s.JoinP(t, s.volWP[v])
		if s.H != nil {
			s.H[t].Join(s.volWH[v])
		}
		joinInto(&s.volRP[v], s.P[t])
		if s.volRH != nil {
			joinInto(&s.volRH[v], s.H[t])
		}
		if s.hook != nil {
			s.edge(s.lastVolW[v], idx)
			s.lastVolR[v] = idx
		}
	case trace.OpVolatileWrite:
		v := e.Targ
		s.growVolatiles(int(v) + 1)
		s.JoinP(t, s.volWP[v])
		s.JoinP(t, s.volRP[v])
		if s.H != nil {
			s.H[t].Join(s.volWH[v])
			s.H[t].Join(s.volRH[v])
		}
		joinInto(&s.volWP[v], s.P[t])
		if s.volWH != nil {
			joinInto(&s.volWH[v], s.H[t])
		}
		if s.hook != nil {
			s.edge(s.lastVolW[v], idx)
			s.edge(s.lastVolR[v], idx)
			s.lastVolW[v] = idx
		}
	case trace.OpClassInit:
		c := e.Targ
		s.growClasses(int(c) + 1)
		joinInto(&s.clsP[c], s.P[t])
		if s.clsH != nil {
			joinInto(&s.clsH[c], s.H[t])
		}
		if s.hook != nil {
			s.lastClsInit[c] = idx
		}
	case trace.OpClassAccess:
		c := e.Targ
		s.growClasses(int(c) + 1)
		s.JoinP(t, s.clsP[c])
		if s.H != nil {
			s.H[t].Join(s.clsH[c])
		}
		if s.hook != nil {
			s.edge(s.lastClsInit[c], idx)
		}
	default:
		return false
	}
	s.Tick(t)
	return true
}

func joinInto(dst **vc.VC, src *vc.VC) {
	if *dst == nil {
		*dst = src.Copy()
		return
	}
	(*dst).Join(src)
}

// Weight estimates retained metadata in 8-byte words.
func (s *SyncState) Weight() int {
	w := 0
	for _, groups := range [][]*vc.VC{s.P, s.H, s.lockP, s.lockH, s.volRP, s.volWP, s.volRH, s.volWH, s.clsP, s.clsH} {
		for _, v := range groups {
			if v != nil {
				w += v.Weight() + 3
			}
		}
	}
	return w
}
