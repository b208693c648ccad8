package trace

import "fmt"

// CheckError describes a well-formedness violation at a trace index.
type CheckError struct {
	Index int
	Event Event
	Msg   string
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("trace: event %d (%s): %s", e.Index, e.Event, e.Msg)
}

// Check verifies the well-formedness rules the paper's formalism assumes:
//
//   - a thread only acquires a lock that is not held, and only releases a
//     lock it holds (critical sections are non-reentrant and properly
//     nested per lock);
//   - a thread executes no events before it is forked (other than thread 0)
//     and none after it is joined;
//   - fork and join targets are valid, never the acting thread itself, and
//     forked/joined at most once;
//   - all ids are within the trace's declared id spaces.
//
// It returns nil if the trace is well formed.
func Check(tr *Trace) error {
	lockHolder := make([]int32, tr.Locks) // -1 = free
	for i := range lockHolder {
		lockHolder[i] = -1
	}
	// Threads that are never the target of a fork are treated as existing
	// from the start of the trace (the paper's example traces have no fork
	// events); fork targets must not run before their fork.
	started := make([]bool, tr.Threads)
	for i := range started {
		started[i] = true
	}
	for _, e := range tr.Events {
		if e.Op == OpFork && int(e.Targ) < tr.Threads {
			started[e.Targ] = false
		}
	}
	ended := make([]bool, tr.Threads)

	fail := func(i int, e Event, f string, args ...any) error {
		return &CheckError{Index: i, Event: e, Msg: fmt.Sprintf(f, args...)}
	}

	for i, e := range tr.Events {
		if int(e.T) >= tr.Threads {
			return fail(i, e, "thread id out of range (Threads=%d)", tr.Threads)
		}
		if !started[e.T] {
			return fail(i, e, "thread ran before being forked")
		}
		if ended[e.T] {
			return fail(i, e, "thread ran after being joined")
		}
		switch e.Op {
		case OpRead, OpWrite:
			if int(e.Targ) >= tr.Vars {
				return fail(i, e, "variable id out of range (Vars=%d)", tr.Vars)
			}
		case OpAcquire:
			if int(e.Targ) >= tr.Locks {
				return fail(i, e, "lock id out of range (Locks=%d)", tr.Locks)
			}
			if h := lockHolder[e.Targ]; h >= 0 {
				if h == int32(e.T) {
					return fail(i, e, "reentrant acquire (lock already held by this thread)")
				}
				return fail(i, e, "lock already held by T%d", h)
			}
			lockHolder[e.Targ] = int32(e.T)
		case OpRelease:
			if int(e.Targ) >= tr.Locks {
				return fail(i, e, "lock id out of range (Locks=%d)", tr.Locks)
			}
			if lockHolder[e.Targ] != int32(e.T) {
				return fail(i, e, "release of lock not held by this thread")
			}
			lockHolder[e.Targ] = -1
		case OpFork:
			ct := Tid(e.Targ)
			if int(ct) >= tr.Threads {
				return fail(i, e, "forked thread id out of range")
			}
			if ct == e.T {
				return fail(i, e, "thread forks itself")
			}
			if started[ct] {
				return fail(i, e, "thread T%d forked twice (or is main)", ct)
			}
			started[ct] = true
		case OpJoin:
			ct := Tid(e.Targ)
			if int(ct) >= tr.Threads {
				return fail(i, e, "joined thread id out of range")
			}
			if ct == e.T {
				return fail(i, e, "thread joins itself")
			}
			if !started[ct] {
				return fail(i, e, "join of never-forked thread T%d", ct)
			}
			if ended[ct] {
				return fail(i, e, "thread T%d joined twice", ct)
			}
			ended[ct] = true
		case OpVolatileRead, OpVolatileWrite:
			if int(e.Targ) >= tr.Volatiles {
				return fail(i, e, "volatile id out of range (Volatiles=%d)", tr.Volatiles)
			}
		case OpClassInit, OpClassAccess:
			if int(e.Targ) >= tr.Classes {
				return fail(i, e, "class id out of range (Classes=%d)", tr.Classes)
			}
		default:
			return fail(i, e, "unknown op")
		}
	}
	return nil
}

// MustCheck panics if tr is not well formed; intended for tests and for the
// workload generators, whose output is well formed by construction.
func MustCheck(tr *Trace) *Trace {
	if err := Check(tr); err != nil {
		panic(err)
	}
	return tr
}

// Checker verifies well-formedness incrementally, one event at a time, for
// streams whose length and id spaces are not known up front. It enforces
// the same locking-discipline and thread-lifecycle rules as Check, with two
// streaming adaptations: id ranges are unchecked (streams declare hints,
// not bounds), and a thread is considered started at its first event — so
// "ran before being forked" surfaces as an error at the later fork ("fork
// of a thread that already ran") rather than at the early event.
//
// Its state is two dense tables indexed by id and grown by doubling as ids
// appear, the layout every analysis uses for the same id spaces: the common
// event costs one byte load.
type Checker struct {
	n       int
	threads []uint8 // lifecycle flags per thread id
	holder  []int32 // per lock id: holding thread + 1; 0 = free
}

// Thread lifecycle flags.
const (
	threadRunning uint8 = 1 << iota // has executed an event
	threadForked                    // was created by a fork event
	threadEnded                     // has been joined
)

// NewChecker returns a checker with no events observed.
func NewChecker() *Checker { return &Checker{} }

// fail builds the error for the event being stepped.
func (c *Checker) fail(e Event, f string, args ...any) error {
	return &CheckError{Index: c.n, Event: e, Msg: fmt.Sprintf(f, args...)}
}

// cover returns s extended to hold index i: new elements are zero, and the
// capacity doubles when it has to reallocate.
func cover[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	if i < cap(s) {
		return s[:i+1]
	}
	grown := make([]T, i+1, 2*(i+1))
	copy(grown, s)
	return grown
}

// Step checks the next event of the stream. The error, if any, is a
// *CheckError carrying the event's stream index.
func (c *Checker) Step(e Event) error {
	if plainAccess(c.threads, e) {
		c.n++
		return nil
	}
	return c.step(e)
}

// Run checks evs as the next events of the stream, in order, and stops at
// the first that breaks a rule: n events, evs[:n], were accepted, and err is
// nil or the *CheckError Step would have returned for evs[n]. It is Step in
// one loop, for a front end that holds a run: the access shortcut costs no
// call and the thread table stays in a register.
func (c *Checker) Run(evs []Event) (n int, err error) {
	base, threads := c.n, c.threads
	for i, e := range evs {
		if plainAccess(threads, e) {
			continue
		}
		c.n = base + i
		if err := c.step(e); err != nil {
			return i, err
		}
		threads = c.threads
	}
	c.n = base + len(evs)
	return len(evs), nil
}

// plainAccess reports whether e is an access by a thread that is running
// and not joined: nearly every event, and one that breaks no rule and
// changes no state. Step and Run decide it before calling step, which keeps
// the event in registers: step's growth and error paths make it spill every
// argument on entry.
func plainAccess(threads []uint8, e Event) bool {
	return e.Op.IsAccess() && int(e.T) < len(threads) && threads[e.T]&^threadForked == threadRunning
}

// step is Step without the shortcut: every rule, for any event.
func (c *Checker) step(e Event) error {
	t := int(e.T)
	c.threads = cover(c.threads, t)
	if c.threads[t]&threadEnded != 0 {
		return c.fail(e, "thread ran after being joined")
	}
	switch e.Op {
	case OpRead, OpWrite, OpVolatileRead, OpVolatileWrite, OpClassInit, OpClassAccess:
		// No per-op state beyond marking the thread as running.
	case OpAcquire:
		m := int(e.Targ)
		c.holder = cover(c.holder, m)
		if h := c.holder[m]; h != 0 {
			if h == int32(t)+1 {
				return c.fail(e, "reentrant acquire (lock already held by this thread)")
			}
			return c.fail(e, "lock already held by T%d", h-1)
		}
		c.holder[m] = int32(t) + 1
	case OpRelease:
		m := int(e.Targ)
		if m >= len(c.holder) || c.holder[m] != int32(t)+1 {
			return c.fail(e, "release of lock not held by this thread")
		}
		c.holder[m] = 0
	case OpFork:
		ct := int(Tid(e.Targ))
		if ct == t {
			return c.fail(e, "thread forks itself")
		}
		c.threads = cover(c.threads, ct)
		if c.threads[ct]&threadForked != 0 {
			return c.fail(e, "thread T%d forked twice", ct)
		}
		if c.threads[ct]&(threadRunning|threadEnded) != 0 {
			return c.fail(e, "fork of thread T%d that already ran", ct)
		}
		c.threads[ct] |= threadForked
	case OpJoin:
		ct := int(Tid(e.Targ))
		if ct == t {
			return c.fail(e, "thread joins itself")
		}
		c.threads = cover(c.threads, ct)
		if c.threads[ct]&threadEnded != 0 {
			return c.fail(e, "thread T%d joined twice", ct)
		}
		// A join target that never appeared is treated as a root thread
		// that executed no events, matching Check's treatment of threads
		// that are never fork targets.
		c.threads[ct] |= threadEnded
	default:
		return c.fail(e, "unknown op")
	}
	c.threads[t] |= threadRunning
	c.n++
	return nil
}
