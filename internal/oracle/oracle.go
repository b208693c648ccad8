// Package oracle decides predictable races exactly, by exhaustive search
// over all correct reorderings of a (small) trace. It is the test suite's
// ground truth: the predictive analyses and the vindicator are checked
// against it on the paper's figures and on randomized traces.
//
// Following the formal definitions the paper builds on (Kini et al. 2017;
// Roemer et al. 2018), a correct reordering tr' of tr takes a per-thread
// prefix of tr's events, preserves each thread's program order, is well
// formed with respect to locking, and gives every read the same last writer
// as in tr. Two conflicting accesses race if some correct reordering
// reaches a state in which both are enabled (each is its thread's next
// event and could legally execute) — co-enabledness; the racing accesses
// themselves are exempt from the last-writer rule because they never
// execute in the witness.
//
// The search memoizes on (per-thread position, per-variable last writer);
// it is exponential in the worst case and intended for traces of a few
// dozen events.
package oracle

import (
	"fmt"

	"repro/internal/trace"
)

// Budget bounds a search.
type Budget struct {
	// MaxStates caps the number of distinct states explored (default 1e6).
	MaxStates int
}

func (b Budget) withDefaults() Budget {
	if b.MaxStates <= 0 {
		b.MaxStates = 1_000_000
	}
	return b
}

// Result of an exact predictable-race query.
type Result struct {
	// Predictable reports whether a correct reordering co-enables the pair.
	Predictable bool
	// Complete is false if the search hit its budget before exhausting the
	// state space (Predictable false is then inconclusive).
	Complete bool
	// States is the number of distinct states explored.
	States int
}

type searcher struct {
	tr          *trace.Trace
	vars        int       // variable ids tr uses
	byThread    [][]int32 // per thread tr uses, fork and join targets included
	posInThread []int32
	lastWriter  []int32 // original last writer per read event
	e1, e2      int32
	// cap[t] bounds thread t's prefix: events after a racing access on its
	// own thread can never be needed.
	cap []int32

	visited map[string]bool
	states  int
	budget  int
}

// PredictableRace reports whether the conflicting accesses at trace
// indices e1 < e2 form a predictable race of tr.
func PredictableRace(tr *trace.Trace, e1, e2 int, budget Budget) Result {
	budget = budget.withDefaults()
	a, b := tr.Events[e1], tr.Events[e2]
	if a.T == b.T || a.Targ != b.Targ || !a.Op.IsAccess() || !b.Op.IsAccess() ||
		(a.Op != trace.OpWrite && b.Op != trace.OpWrite) {
		return Result{Predictable: false, Complete: true}
	}
	s := &searcher{
		tr:      tr,
		e1:      int32(e1),
		e2:      int32(e2),
		visited: make(map[string]bool),
		budget:  budget.MaxStates,
	}
	s.index()
	next := make([]int32, len(s.byThread))
	lastW := make([]int32, s.vars)
	for i := range lastW {
		lastW[i] = -1
	}
	found := s.dfs(next, lastW)
	return Result{Predictable: found, Complete: s.states < s.budget, States: s.states}
}

func (s *searcher) index() {
	tr := s.tr
	x := trace.ExtentOf(tr.Events)
	s.vars = x.Vars
	s.byThread = make([][]int32, x.Threads)
	s.posInThread = make([]int32, tr.Len())
	s.lastWriter = make([]int32, tr.Len())
	lw := make([]int32, s.vars)
	for i := range lw {
		lw[i] = -1
	}
	for i, e := range tr.Events {
		s.posInThread[i] = int32(len(s.byThread[e.T]))
		s.byThread[e.T] = append(s.byThread[e.T], int32(i))
		s.lastWriter[i] = -1
		switch e.Op {
		case trace.OpRead:
			s.lastWriter[i] = lw[e.Targ]
		case trace.OpWrite:
			lw[e.Targ] = int32(i)
		}
	}
	s.cap = make([]int32, len(s.byThread))
	for t := range s.cap {
		s.cap[t] = int32(len(s.byThread[t]))
	}
	// Nothing past a racing access on its own thread is ever useful.
	s.cap[tr.Events[s.e1].T] = s.posInThread[s.e1]
	s.cap[tr.Events[s.e2].T] = s.posInThread[s.e2]
}

// lockFree reports whether lock m is unheld given the scheduled prefixes.
func lockFree(tr *trace.Trace, byThread [][]int32, next []int32, m uint32) bool {
	for t := range byThread {
		depth := 0
		for r := int32(0); r < next[t]; r++ {
			e := tr.Events[byThread[t][r]]
			if e.Targ != m {
				continue
			}
			switch e.Op {
			case trace.OpAcquire:
				depth++
			case trace.OpRelease:
				depth--
			}
		}
		if depth > 0 {
			return false
		}
	}
	return true
}

// enabled reports whether event i can execute in the state (next, lastW).
// racing exempts reads from the last-writer rule (co-enabledness).
func (s *searcher) enabled(i int32, next []int32, lastW []int32, racing bool) bool {
	e := s.tr.Events[i]
	switch e.Op {
	case trace.OpAcquire:
		return lockFree(s.tr, s.byThread, next, e.Targ)
	case trace.OpRelease:
		return true // the holder is this thread by well-formedness
	case trace.OpRead:
		return racing || lastW[e.Targ] == s.lastWriter[i]
	case trace.OpFork, trace.OpJoin:
		// Fork/join are hard orderings in any reordering: a forked thread's
		// events exist only after the fork; a join needs the child's full
		// prefix. Conservatively require the child to be fully scheduled
		// for joins and nothing for forks (children start empty).
		if e.Op == trace.OpJoin {
			child := trace.Tid(e.Targ)
			return next[child] == int32(len(s.byThread[child]))
		}
		return true
	default:
		return true
	}
}

// forkOK enforces that a thread only runs after its fork is scheduled.
func (s *searcher) forkOK(t int, next []int32) bool {
	// Find the fork event targeting t, if any; it must already be
	// scheduled.
	for i, e := range s.tr.Events {
		if e.Op == trace.OpFork && int(e.Targ) == t {
			ft := e.T
			return s.posInThread[i] < next[ft]
		}
	}
	return true
}

func stateKey(next []int32, lastW []int32) string {
	return fmt.Sprint(next, lastW)
}

func (s *searcher) dfs(next []int32, lastW []int32) bool {
	if s.states >= s.budget {
		return false
	}
	key := stateKey(next, lastW)
	if s.visited[key] {
		return false
	}
	s.visited[key] = true
	s.states++

	// Goal: both racing accesses are their threads' next events and
	// co-enabled.
	t1, t2 := s.tr.Events[s.e1].T, s.tr.Events[s.e2].T
	if next[t1] == s.posInThread[s.e1] && next[t2] == s.posInThread[s.e2] &&
		s.enabled(s.e1, next, lastW, true) && s.enabled(s.e2, next, lastW, true) &&
		s.forkOK(int(t1), next) && s.forkOK(int(t2), next) {
		return true
	}

	for t := range s.byThread {
		if next[t] >= s.cap[t] {
			continue
		}
		if !s.forkOK(t, next) {
			continue
		}
		i := s.byThread[t][next[t]]
		if !s.enabled(i, next, lastW, false) {
			continue
		}
		e := s.tr.Events[i]
		next[t]++
		var saved int32
		wrote := e.Op == trace.OpWrite
		if wrote {
			saved = lastW[e.Targ]
			lastW[e.Targ] = i
		}
		if s.dfs(next, lastW) {
			return true
		}
		if wrote {
			lastW[e.Targ] = saved
		}
		next[t]--
	}
	return false
}

// AnyRace reports whether any conflicting pair of tr is a predictable
// race, returning the first witnessing pair found.
func AnyRace(tr *trace.Trace, budget Budget) (e1, e2 int, res Result) {
	res.Complete = true
	for j := range tr.Events {
		ej := tr.Events[j]
		if !ej.Op.IsAccess() {
			continue
		}
		for i := 0; i < j; i++ {
			ei := tr.Events[i]
			if !ei.Op.IsAccess() || ei.Targ != ej.Targ || ei.T == ej.T {
				continue
			}
			if ei.Op != trace.OpWrite && ej.Op != trace.OpWrite {
				continue
			}
			r := PredictableRace(tr, i, j, budget)
			res.States += r.States
			res.Complete = res.Complete && r.Complete
			if r.Predictable {
				res.Predictable = true
				return i, j, res
			}
		}
	}
	return -1, -1, res
}

// RaceOnVar reports whether variable x has any predictable race in tr.
func RaceOnVar(tr *trace.Trace, x uint32, budget Budget) Result {
	out := Result{Complete: true}
	for j := range tr.Events {
		ej := tr.Events[j]
		if !ej.Op.IsAccess() || ej.Targ != x {
			continue
		}
		for i := 0; i < j; i++ {
			ei := tr.Events[i]
			if !ei.Op.IsAccess() || ei.Targ != x || ei.T == ej.T {
				continue
			}
			if ei.Op != trace.OpWrite && ej.Op != trace.OpWrite {
				continue
			}
			r := PredictableRace(tr, i, j, budget)
			out.States += r.States
			out.Complete = out.Complete && r.Complete
			if r.Predictable {
				out.Predictable = true
				return out
			}
		}
	}
	return out
}
