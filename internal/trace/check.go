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
//   - a thread runs only between its fork and its join: threads that are
//     never forked exist from the start, and no thread runs after it is
//     joined;
//   - fork and join targets are threads, never the acting thread itself,
//     and forked or joined at most once.
//
// It is the streaming Checker over the events: any id is in range, and the
// first violation is the error, a *CheckError; a thread that runs before
// its fork is reported at the fork. It returns nil if the trace is well
// formed.
func Check(tr *Trace) error {
	_, err := NewChecker().Run(tr.Events)
	return err
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
// streams whose length is not known up front. It holds the
// locking-discipline and thread-lifecycle rules, the one copy of them:
// Check runs it, and vindication's witness check runs it too. Any id is in
// range, but a fork or join target must fit a thread id. A thread is
// started at its first event, so one that runs before its fork is an error
// at the fork ("fork of thread Tn that already ran").
//
// Its state is a dense row of lifecycle flags per thread, which makes the
// common event cost one byte load, and a Table of holders per lock.
type Checker struct {
	n       int
	threads []uint8                 // lifecycle flags per thread id
	holder  Table[int32, [16]int32] // per lock id: holding thread + 1, 0 = free; pages of 16, as every per-lock table
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
	EnsureLen(&c.threads, t+1)
	if c.threads[t]&threadEnded != 0 {
		return c.fail(e, "thread ran after being joined")
	}
	switch e.Op {
	case OpRead, OpWrite, OpVolatileRead, OpVolatileWrite, OpClassInit, OpClassAccess:
		// No per-op state beyond marking the thread as running.
	case OpAcquire:
		h, ok := c.holder.Find(e.Targ)
		if !ok {
			h = c.holder.At(e.Targ)
		}
		if *h != 0 {
			if *h == int32(t)+1 {
				return c.fail(e, "reentrant acquire (lock already held by this thread)")
			}
			return c.fail(e, "lock already held by T%d", *h-1)
		}
		*h = int32(t) + 1
	case OpRelease:
		h, ok := c.holder.Find(e.Targ)
		if !ok {
			h = c.holder.At(e.Targ)
		}
		if *h != int32(t)+1 {
			return c.fail(e, "release of lock not held by this thread")
		}
		*h = 0
	case OpFork:
		if e.Targ > maxTid {
			return c.fail(e, "forked thread id out of range")
		}
		ct := int(Tid(e.Targ))
		if ct == t {
			return c.fail(e, "thread forks itself")
		}
		EnsureLen(&c.threads, ct+1)
		if c.threads[ct]&threadForked != 0 {
			return c.fail(e, "thread T%d forked twice", ct)
		}
		if c.threads[ct]&(threadRunning|threadEnded) != 0 {
			return c.fail(e, "fork of thread T%d that already ran", ct)
		}
		c.threads[ct] |= threadForked
	case OpJoin:
		if e.Targ > maxTid {
			return c.fail(e, "joined thread id out of range")
		}
		ct := int(Tid(e.Targ))
		if ct == t {
			return c.fail(e, "thread joins itself")
		}
		EnsureLen(&c.threads, ct+1)
		if c.threads[ct]&threadEnded != 0 {
			return c.fail(e, "thread T%d joined twice", ct)
		}
		// A join target that never appeared is a root thread that
		// executed no events.
		c.threads[ct] |= threadEnded
	default:
		return c.fail(e, "unknown op")
	}
	c.threads[t] |= threadRunning
	c.n++
	return nil
}
