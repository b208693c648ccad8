package analysis

import (
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Hook receives constraint-graph edges from an analysis (the "w/G"
// variants). src and dst are trace event indices, src < dst, of threads
// from and to; dst is the event the analysis is processing, so the edges
// into one thread arrive in program order of their destinations.
type Hook interface {
	Edge(src, dst int32, from, to trace.Tid)
}

// Source is an event a constraint-graph edge may come from: its trace index
// plus one, and its thread. The zero Source is no event, so a fresh table
// slot holds none.
type Source struct {
	at int32
	T  trace.Tid
}

// NewSource returns the event at trace index idx, by thread t.
func NewSource(idx int32, t trace.Tid) Source { return Source{idx + 1, t} }

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
// Every table grows on demand, so a SyncState is built before any events
// exist and consumes an unbounded stream whose id spaces are discovered
// incrementally.
type SyncState struct {
	_   report.Pad
	Rel Relation

	// P is the relation clock per thread; P[t].Get(t) is t's local clock.
	P []*vc.VC
	// H is the HB clock per thread; nil unless Rel == WCP.
	H []*vc.VC

	locks trace.Table[lockRow, [syncPage]lockRow] // HB and WCP only
	vols  trace.Table[volRow, [syncPage]volRow]
	cls   trace.Table[clsRow, [syncPage]clsRow]

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
	hook  Hook
	marks []threadMark
	_     report.Pad
}

// lockRow is a lock's release clocks, P and H (HB and WCP only).
type lockRow struct{ p, h *vc.VC }

// volRow is a volatile's last-readers and last-writer clocks, P and H, and
// its last write and read events for the graph.
type volRow struct {
	rp, wp, rh, wh *vc.VC
	lastW, lastR   Source
}

// clsRow is a class's initialization clocks, P and H, and its initializing
// event for the graph.
type clsRow struct {
	p, h *vc.VC
	init Source
}

// Pages of 16 rows: a stream names tens to a few hundred locks and a
// handful of volatiles and classes, so a page is about what dense tables
// of them would hold, and a table of one row stays small.
const syncPage = 16

// threadMark is a thread's graph bookkeeping.
type threadMark struct {
	last int32  // the thread's last event's index plus one, 0 for none
	fork Source // the fork event awaiting the thread's first event, by the forker
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
	return marks[:max(n, len(marks))]
}

// NewSyncState builds empty synchronization state for relation rel; every
// table grows as new ids appear.
func NewSyncState(rel Relation) *SyncState { return &SyncState{Rel: rel} }

// Threads returns the number of threads observed so far.
func (s *SyncState) Threads() int { return len(s.P) }

// growThreads extends the per-thread tables to cover thread ids < n. Each
// new thread starts with local clock 1 in its own component.
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

// et ensures thread t's tables exist (ensure-thread).
func (s *SyncState) et(t trace.Tid) {
	if int(t) >= len(s.P) {
		s.growThreads(int(t) + 1)
	}
}

// Ensure makes thread t's tables exist. Analyses call it as they open an
// event of a thread new to them, so that direct P[t]/H[t] indexing is safe
// even when t's first event is the one being handled.
func (s *SyncState) Ensure(t trace.Tid) { s.et(t) }

// SetHook enables constraint-graph edge recording: every edge the analysis
// draws goes to h, on a state no event has reached yet.
func (s *SyncState) SetHook(h Hook) {
	s.hook = h
	s.marks = growMarks(nil, len(s.P))
}

// Hook returns the hook edges go to, nil if none.
func (s *SyncState) Hook() Hook { return s.hook }

// Edge hands the hook, if any, the constraint src → dst, where dst is the
// current event, by thread t. A source with no event draws nothing.
func (s *SyncState) Edge(src Source, dst int32, t trace.Tid) {
	if s.hook != nil && src.at > 0 {
		s.hook.Edge(src.at-1, dst, src.T, t)
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
	if m.fork.at > 0 {
		s.Edge(m.fork, idx, t)
		m.fork = Source{}
	}
	m.last = idx + 1
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

// JoinRel is JoinP for a logged clock read through its owner-relative view.
// The self-knowledge it carries is its component of t's, which is the view's
// own when t logged it: the view's base may hold an earlier time there.
func (s *SyncState) JoinRel(t trace.Tid, r *vc.Rel) {
	s.et(t)
	r.JoinInto(s.P[t])
	if s.selfP != nil {
		if g := r.Get(vc.Tid(t)); g > s.selfP[t] {
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
	if s.Rel != HB && s.Rel != WCP {
		return
	}
	l := s.locks.At(m)
	s.JoinP(t, l.p)
	if s.H != nil {
		s.H[t].Join(l.h)
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
	// The per-lock release clocks are overwritten in place: nothing retains
	// a reference to them (PreAcquire joins their contents immediately), so
	// reusing the existing vector avoids one or two heap clocks per release.
	if s.Rel == HB || s.Rel == WCP {
		l := s.locks.At(m)
		if l.p == nil {
			l.p = vc.New(0)
		}
		l.p.CopyFrom(s.P[t])
		if s.Rel == WCP {
			// The release→acquire edge is an HB edge, not a WCP edge: it
			// carries the releasing thread's WCP-before knowledge (right
			// HB-composition) but must not export the thread's own local
			// clock, which tracks only program order — otherwise WCP would
			// collapse into HB. What it may export is selfP: self-knowledge
			// delivered by earlier relation edges.
			l.p.Set(vc.Tid(t), s.selfP[t])
			if l.h == nil {
				l.h = vc.New(0)
			}
			l.h.CopyFrom(s.H[t])
		}
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
			s.marks[child].fork = NewSource(idx, t)
		}
	case trace.OpJoin:
		child := trace.Tid(e.Targ)
		s.et(child)
		s.JoinP(t, s.P[child])
		if s.H != nil {
			s.H[t].Join(s.H[child])
		}
		if s.hook != nil {
			s.Edge(Source{s.marks[child].last, child}, idx, t)
		}
	case trace.OpVolatileRead:
		v := s.vols.At(e.Targ)
		s.JoinP(t, v.wp)
		if s.H != nil {
			s.H[t].Join(v.wh)
			joinInto(&v.rh, s.H[t])
		}
		joinInto(&v.rp, s.P[t])
		if s.hook != nil {
			s.Edge(v.lastW, idx, t)
			v.lastR = NewSource(idx, t)
		}
	case trace.OpVolatileWrite:
		v := s.vols.At(e.Targ)
		s.JoinP(t, v.wp)
		s.JoinP(t, v.rp)
		if s.H != nil {
			s.H[t].Join(v.wh)
			s.H[t].Join(v.rh)
			joinInto(&v.wh, s.H[t])
		}
		joinInto(&v.wp, s.P[t])
		if s.hook != nil {
			s.Edge(v.lastW, idx, t)
			s.Edge(v.lastR, idx, t)
			v.lastW = NewSource(idx, t)
		}
	case trace.OpClassInit:
		c := s.cls.At(e.Targ)
		joinInto(&c.p, s.P[t])
		if s.H != nil {
			joinInto(&c.h, s.H[t])
		}
		if s.hook != nil {
			c.init = NewSource(idx, t)
		}
	case trace.OpClassAccess:
		c := s.cls.At(e.Targ)
		s.JoinP(t, c.p)
		if s.H != nil {
			s.H[t].Join(c.h)
		}
		if s.hook != nil {
			s.Edge(c.init, idx, t)
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

// Weight estimates retained metadata in 8-byte words: the thread clocks,
// and the lock, volatile and class tables with the clocks their rows hold.
func (s *SyncState) Weight() int {
	w := 0
	for _, v := range s.P {
		w += ClockWords(v)
	}
	for _, v := range s.H {
		w += ClockWords(v)
	}
	w += s.locks.Weight(2, func(l *lockRow) int { return ClockWords(l.p) + ClockWords(l.h) })
	w += s.vols.Weight(6, func(v *volRow) int {
		return ClockWords(v.rp) + ClockWords(v.wp) + ClockWords(v.rh) + ClockWords(v.wh)
	})
	return w + s.cls.Weight(3, func(c *clsRow) int { return ClockWords(c.p) + ClockWords(c.h) })
}

// ClockWords is a heap clock's weight with its 3-word header, 0 for none.
func ClockWords(v *vc.VC) int {
	if v == nil {
		return 0
	}
	return v.Weight() + 3
}
