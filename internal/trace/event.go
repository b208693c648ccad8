// Package trace defines the execution-trace model every analysis consumes:
// a totally ordered list of events (the linearization <tr of a multithreaded
// execution), plus a fluent builder, a well-formedness checker, and text and
// binary codecs.
//
// This package is the repository's substitute for the RoadRunner dynamic
// analysis framework: RoadRunner's role in the paper is to produce exactly
// such a linearized stream from an executing JVM.
package trace

import "fmt"

// Tid identifies a thread within a trace. Thread ids are dense, starting
// at 0 for the main thread.
type Tid uint16

// maxTid is the largest thread id: a fork or join target above it names no
// thread.
const maxTid = 1<<16 - 1

// Op is the kind of an event.
type Op uint8

// Event kinds. Read/Write/Acquire/Release are the four core operations of
// the paper's formalism; the rest are the additional synchronization events
// §5.1 requires every analysis to handle.
const (
	// OpRead is a read rd(x) of variable Target.
	OpRead Op = iota
	// OpWrite is a write wr(x) of variable Target.
	OpWrite
	// OpAcquire is acq(m) of lock Target.
	OpAcquire
	// OpRelease is rel(m) of lock Target.
	OpRelease
	// OpFork creates thread Target; orders the parent's prefix before every
	// event of the child.
	OpFork
	// OpJoin awaits thread Target; orders every event of the child before
	// the parent's suffix.
	OpJoin
	// OpVolatileRead reads volatile variable Target; ordered after
	// conflicting volatile writes.
	OpVolatileRead
	// OpVolatileWrite writes volatile variable Target; ordered after
	// conflicting volatile accesses.
	OpVolatileWrite
	// OpClassInit marks class Target initialized by the executing thread.
	OpClassInit
	// OpClassAccess marks a first use of class Target; ordered after the
	// class's OpClassInit.
	OpClassAccess

	numOps
)

var opNames = [numOps]string{
	"rd", "wr", "acq", "rel", "fork", "join", "vrd", "vwr", "clinit", "claccess",
}

// String returns the mnemonic for the op ("rd", "acq", ...).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is one of the defined event kinds — the check
// every deserialization boundary (binary records, report JSON witnesses)
// applies before trusting an op byte.
func (o Op) Valid() bool { return o < numOps }

// IsAccess reports whether the op is a plain variable access (read or
// write) — the events race checks apply to.
func (o Op) IsAccess() bool { return o == OpRead || o == OpWrite }

// IsSync reports whether the op is a synchronization operation, i.e. any
// event that increments the executing thread's logical clock.
func (o Op) IsSync() bool { return !o.IsAccess() }

// The id spaces an event's target can name.
const (
	threadSpace = iota
	varSpace
	lockSpace
	volatileSpace
	classSpace
	numSpaces
)

// targetSpace is the id space each op's target names: the one map from op
// to id space, read by ExtentOf and Event.String.
var targetSpace = [numOps]int{
	OpRead: varSpace, OpWrite: varSpace,
	OpAcquire: lockSpace, OpRelease: lockSpace,
	OpFork: threadSpace, OpJoin: threadSpace,
	OpVolatileRead: volatileSpace, OpVolatileWrite: volatileSpace,
	OpClassInit: classSpace, OpClassAccess: classSpace,
}

// spaceLetter is each id space's letter in Event.String.
var spaceLetter = [numSpaces]byte{'T', 'x', 'm', 'v', 'c'}

// Loc is a static program location (source site). Race reports are
// deduplicated by Loc to produce the paper's "statically distinct" counts.
type Loc uint32

// NoLoc marks an event with no associated source site.
const NoLoc Loc = 0

// Event is one entry of an execution trace. Target is interpreted by Op:
// variable id for accesses, lock id for acquire/release, thread id for
// fork/join, volatile id for volatile accesses, class id for class events.
type Event struct {
	T    Tid
	Op   Op
	Targ uint32
	Loc  Loc
}

// String renders the event like "T2:wr(x17)@loc42".
func (e Event) String() string {
	kind := byte('c')
	if e.Op.Valid() {
		kind = spaceLetter[targetSpace[e.Op]]
	}
	s := fmt.Sprintf("T%d:%s(%c%d)", e.T, e.Op, kind, e.Targ)
	if e.Loc != NoLoc {
		s += fmt.Sprintf("@loc%d", e.Loc)
	}
	return s
}

// Trace is a totally ordered event list: the observed linearization <tr.
// Its ids are its declaration; ExtentOf derives how many of each it uses.
type Trace struct {
	Events []Event

	// Names optionally maps interned builder names back to ids for
	// debugging; nil for generated traces.
	Names *NameTable
}

// Extent is how many ids of each kind a run of events uses: the largest id
// plus one, a fork or join target counting as a thread.
type Extent struct {
	Threads, Vars, Locks, Volatiles, Classes int
}

// ExtentOf derives the extent of evs.
func ExtentOf(evs []Event) Extent {
	var n [numSpaces]int
	for _, e := range evs {
		n[threadSpace] = max(n[threadSpace], int(e.T)+1)
		if e.Op < numOps {
			s := targetSpace[e.Op]
			n[s] = max(n[s], int(e.Targ)+1)
		}
	}
	return Extent{n[threadSpace], n[varSpace], n[lockSpace], n[volatileSpace], n[classSpace]}
}

// NameTable records the human-readable names used by a Builder.
type NameTable struct {
	Threads, Vars, Locks, Volatiles, Classes []string
}

// Len returns the number of events.
func (tr *Trace) Len() int { return len(tr.Events) }

// Counts returns per-op event counts, used by workload calibration tests.
func (tr *Trace) Counts() map[Op]int {
	m := make(map[Op]int, int(numOps))
	for _, e := range tr.Events {
		m[e.Op]++
	}
	return m
}
