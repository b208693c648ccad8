package trace

import "fmt"

// Builder assembles a Trace from named operations, interning thread,
// variable, lock, volatile and class names to dense ids. It is the tool the
// test suite and the figure library use to transcribe the paper's example
// executions.
//
// Events are appended in program (trace) order; the builder does not check
// well-formedness — use Check on the result.
type Builder struct {
	events  []Event
	threads *interner
	vars    *interner
	locks   *interner
	vols    *interner
	classes *interner
	nextLoc Loc
}

type interner struct {
	ids   map[string]uint32
	names []string
}

func newInterner() *interner { return &interner{ids: make(map[string]uint32)} }

func (in *interner) id(name string) uint32 {
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := uint32(len(in.names))
	in.ids[name] = id
	in.names = append(in.names, name)
	return id
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder {
	return &Builder{
		threads: newInterner(),
		vars:    newInterner(),
		locks:   newInterner(),
		vols:    newInterner(),
		classes: newInterner(),
	}
}

func (b *Builder) tid(thread string) Tid {
	id := b.threads.id(thread)
	if id > 0xFFFF {
		panic(fmt.Sprintf("trace: too many threads (%s)", thread))
	}
	return Tid(id)
}

// loc allocates a fresh static location per call site by default; the
// At variants let tests pin locations explicitly.
func (b *Builder) autoLoc() Loc {
	b.nextLoc++
	return b.nextLoc
}

func (b *Builder) add(thread string, op Op, targ uint32, loc Loc) *Builder {
	b.events = append(b.events, Event{T: b.tid(thread), Op: op, Targ: targ, Loc: loc})
	return b
}

// Read appends rd(x) by the named thread at a fresh location.
func (b *Builder) Read(thread, x string) *Builder {
	return b.add(thread, OpRead, b.vars.id(x), b.autoLoc())
}

// Write appends wr(x) by the named thread at a fresh location.
func (b *Builder) Write(thread, x string) *Builder {
	return b.add(thread, OpWrite, b.vars.id(x), b.autoLoc())
}

// ReadAt appends rd(x) at an explicit static location.
func (b *Builder) ReadAt(thread, x string, loc Loc) *Builder {
	return b.add(thread, OpRead, b.vars.id(x), loc)
}

// WriteAt appends wr(x) at an explicit static location.
func (b *Builder) WriteAt(thread, x string, loc Loc) *Builder {
	return b.add(thread, OpWrite, b.vars.id(x), loc)
}

// Acq appends acq(m).
func (b *Builder) Acq(thread, m string) *Builder {
	return b.add(thread, OpAcquire, b.locks.id(m), NoLoc)
}

// Rel appends rel(m).
func (b *Builder) Rel(thread, m string) *Builder {
	return b.add(thread, OpRelease, b.locks.id(m), NoLoc)
}

// Fork appends fork(child) by parent. The child thread is interned on first
// use; its events must all appear after the fork.
func (b *Builder) Fork(parent, child string) *Builder {
	return b.add(parent, OpFork, uint32(b.tid(child)), NoLoc)
}

// Join appends join(child) by parent; the child's events must all appear
// before the join.
func (b *Builder) Join(parent, child string) *Builder {
	return b.add(parent, OpJoin, uint32(b.tid(child)), NoLoc)
}

// VolRead appends a volatile read of v.
func (b *Builder) VolRead(thread, v string) *Builder {
	return b.add(thread, OpVolatileRead, b.vols.id(v), NoLoc)
}

// VolWrite appends a volatile write of v.
func (b *Builder) VolWrite(thread, v string) *Builder {
	return b.add(thread, OpVolatileWrite, b.vols.id(v), NoLoc)
}

// ClassInit appends a "class initialized" event for class c.
func (b *Builder) ClassInit(thread, c string) *Builder {
	return b.add(thread, OpClassInit, b.classes.id(c), NoLoc)
}

// ClassAccess appends a "class accessed" event for class c.
func (b *Builder) ClassAccess(thread, c string) *Builder {
	return b.add(thread, OpClassAccess, b.classes.id(c), NoLoc)
}

// Sync appends the paper's sync(o) shorthand: acq(o); rd(oVar); wr(oVar);
// rel(o) — a critical section whose conflicting accesses order any two
// sync(o) sequences under every relation, including DC and WDC.
func (b *Builder) Sync(thread, o string) *Builder {
	ov := o + "Var"
	return b.Acq(thread, o).Read(thread, ov).Write(thread, ov).Rel(thread, o)
}

// Wait models Java wait(): a release followed by an acquire of the monitor
// (§5.1).
func (b *Builder) Wait(thread, m string) *Builder {
	return b.Rel(thread, m).Acq(thread, m)
}

// Build finalizes the trace.
func (b *Builder) Build() *Trace {
	return &Trace{
		Events: b.events,
		Names: &NameTable{
			Threads:   b.threads.names,
			Vars:      b.vars.names,
			Locks:     b.locks.names,
			Volatiles: b.vols.names,
			Classes:   b.classes.names,
		},
	}
}

// VarID returns the interned id for a variable name, for tests that need to
// inspect per-variable results. It panics if the name was never used.
func (b *Builder) VarID(x string) uint32 {
	id, ok := b.vars.ids[x]
	if !ok {
		panic("trace: unknown variable " + x)
	}
	return id
}
