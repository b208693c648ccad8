// Package vindicate checks whether a reported race is a true predictable
// race by constructing a witness: a predicted trace (§2.2) in which the two
// conflicting accesses are adjacent. It plays the role of prior work's
// VindicateRace algorithm (Roemer et al. 2018).
//
// A Vindicator is the one object that gets from a trace to verdicts, built
// once per trace by New: it checks the trace, replays it under Unopt-WDC w/G
// (the weakest relation, so its event constraint graph constrains every
// candidate race; §4.3's record & replay split), and indexes it. The graph,
// the index and the search's scratch stay inside; Race and Pair answer any
// number of races from them.
//
// The algorithm is a constraint-guided greedy scheduler with random
// restarts rather than prior work's full search; like VindicateRace it is
// sound but incomplete: a returned witness always passes the predicted-trace
// verifier (so a vindicated race is certainly predictable), while failure to
// find a witness leaves the race unverified. The verifier reads the trace
// and nothing the search produced — not the graph, not the cone — which is
// what makes it a gate; Verify is the same check for a caller holding only a
// trace and a witness.
package vindicate

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/graph"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/unopt"
)

// Result describes a vindication attempt.
type Result struct {
	// Vindicated reports whether a verified witness was found.
	Vindicated bool
	// Witness is the predicted trace exposing the race (nil unless
	// Vindicated). Its last two events are the racing pair.
	Witness []trace.Event
	// E1, E2 are the trace indices of the racing accesses.
	E1, E2 int
	// Reason explains a failure.
	Reason string
	// WriteReadGap marks the known write→read limitation: the detecting
	// access is a read whose conflicting writes are all ordered before it
	// by the constraint graph's last-writer edges, so the witness search
	// is structurally unable to place the pair adjacent — the race stays
	// unverified for a reason that is a property of the search, not
	// evidence against the race.
	WriteReadGap bool
}

// reasonGraphOrdered is Pair's failure reason when the cone closure pulls
// one racing access into the other's mandatory prefix.
const reasonGraphOrdered = "accesses are ordered by the constraint graph"

// ReasonWriteReadGap is the Reason reported with Result.WriteReadGap: no
// witness can end with a write→read pair whose read is tied to that write
// by its last-writer edge. Racing reads receive hard graph edges from their
// last writer (the predicted-trace definition requires every non-racing
// read to see its original writer, and the graph encodes that uniformly),
// so the cone of the read always swallows the write and the pair is
// reported as graph-ordered even though it races.
const ReasonWriteReadGap = "write→read pair: the racing read's last-writer edge orders every " +
	"conflicting write before it in the constraint graph, so the witness search cannot " +
	"make the pair adjacent (known gap; the race is unverified, not refuted)"

// Options tunes the search.
type Options struct {
	// Restarts is the number of randomized scheduling attempts (default 32).
	Restarts int
	// Seed makes the search deterministic.
	Seed int64
}

// conflict reports whether a and b are accesses to one variable by two
// threads, at least one of them a write.
func conflict(a, b trace.Event) bool {
	return a.T != b.T && a.Targ == b.Targ && a.Op.IsAccess() && b.Op.IsAccess() &&
		(a.Op == trace.OpWrite || b.Op == trace.OpWrite)
}

// FindPrior locates candidate earlier accesses conflicting with the access
// at index e2, latest first.
func FindPrior(tr *trace.Trace, e2 int) []int {
	var out []int
	for i := e2 - 1; i >= 0; i-- {
		if conflict(tr.Events[i], tr.Events[e2]) {
			out = append(out, i)
		}
	}
	return out
}

// Vindicator answers vindication queries over one trace. It is not safe for
// concurrent use: the searches share scratch.
type Vindicator struct {
	index
	g     *graph.Graph  // the replay's event constraint graph
	races []report.Race // what the replay detected

	// Scratch of schedule, made once and left clean by every try.
	scheduled []bool      // per event
	held      locks[bool] // per lock: held by an emitted acquire
	lastW     vars[int32] // per variable: last write emitted + 1, 0 for none
	ptr       []int32     // per thread: cone events emitted
	trail     []int32     // the try's emitted events, in order
	cand      []int       // threads whose next cone event is enabled
}

// vars and locks hold vindication's per-variable and per-lock state: pages
// of 256 variables, the analyses' width, and of 16 locks, as a stream names
// tens to a few hundred.
type (
	vars[T any]  = trace.Table[T, [256]T]
	locks[T any] = trace.Table[T, [16]T]
)

// index is what vindication reads of a trace alone, built once per trace.
type index struct {
	tr *trace.Trace
	// byThread lists event indices per thread in trace order.
	byThread [][]int32
	// posInThread[i] is the rank of event i within its thread.
	posInThread []int32
	// lastWriter[i] is, for a read event i, the index of its last writer in
	// the original trace (-1 if none).
	lastWriter []int32
	// matchRel[i] is, for an acquire event i, the index of its matching
	// release (-1 if the critical section never closes).
	matchRel []int32
}

// newIndex indexes tr, or returns the well-formedness rule tr breaks: the
// index pairs every release with its acquire, and its tables hold the ids
// tr uses.
func newIndex(tr *trace.Trace) (index, error) {
	if err := trace.Check(tr); err != nil {
		return index{}, fmt.Errorf("vindicate: ill-formed trace: %w", err)
	}
	x := index{
		tr:          tr,
		byThread:    make([][]int32, trace.ExtentOf(tr.Events).Threads),
		posInThread: make([]int32, tr.Len()),
		lastWriter:  make([]int32, tr.Len()),
		matchRel:    make([]int32, tr.Len()),
	}
	var lastW vars[int32]    // the variable's last write + 1
	var openAcq locks[int32] // the lock's open acquire (at most one, by well-formedness)
	for i, e := range tr.Events {
		x.posInThread[i] = int32(len(x.byThread[e.T]))
		x.byThread[e.T] = append(x.byThread[e.T], int32(i))
		x.lastWriter[i] = -1
		x.matchRel[i] = -1
		switch e.Op {
		case trace.OpRead:
			x.lastWriter[i] = *lastW.At(e.Targ) - 1
		case trace.OpWrite:
			*lastW.At(e.Targ) = int32(i) + 1
		case trace.OpAcquire:
			*openAcq.At(e.Targ) = int32(i)
		case trace.OpRelease:
			x.matchRel[*openAcq.At(e.Targ)] = int32(i)
		}
	}
	return x, nil
}

// New builds the vindicator of tr: one well-formedness check, one
// Unopt-WDC w/G replay, one index. It returns an error, wrapping the
// *trace.CheckError, if tr is ill formed.
func New(tr *trace.Trace) (*Vindicator, error) {
	x, err := newIndex(tr)
	if err != nil {
		return nil, err
	}
	a := unopt.NewPredictive(analysis.WDC, true)
	col := analysis.Run(a, tr)
	return &Vindicator{
		index:     x,
		g:         a.Graph(),
		races:     col.Races(),
		scheduled: make([]bool, tr.Len()),
		ptr:       make([]int32, len(x.byThread)),
	}, nil
}

// Races returns the races the replay detected, in detection order: every
// candidate the weakest relation flags.
func (v *Vindicator) Races() []report.Race { return v.races }

// Race attempts to vindicate the race whose detecting access is at trace
// index e2, trying each conflicting prior access in turn. A failure on a
// racing read whose candidate writes were all graph-ordered before it is
// flagged as the write→read gap (Result.WriteReadGap) rather than left as
// a silent miss.
func (v *Vindicator) Race(e2 int, opts Options) Result {
	cands := FindPrior(v.tr, e2)
	ordered := 0
	for _, e1 := range cands {
		r := v.Pair(e1, e2, opts)
		if r.Vindicated {
			return r
		}
		if r.Reason == reasonGraphOrdered {
			ordered++
		}
	}
	res := Result{E2: e2, Reason: "no conflicting prior access could be witnessed"}
	if v.tr.Events[e2].Op == trace.OpRead && len(cands) > 0 && ordered == len(cands) {
		res.WriteReadGap = true
		res.Reason = ReasonWriteReadGap
	}
	return res
}

// Pair attempts to vindicate the specific conflicting pair (e1, e2).
func (v *Vindicator) Pair(e1, e2 int, opts Options) Result {
	if opts.Restarts <= 0 {
		opts.Restarts = 32
	}
	res := Result{E1: e1, E2: e2}
	if !conflict(v.tr.Events[e1], v.tr.Events[e2]) {
		res.Reason = "events do not conflict"
		return res
	}

	cut, ok := v.cone(e1, e2)
	if !ok {
		res.Reason = reasonGraphOrdered
		return res
	}
	// The racing threads may not hold a common lock at the race.
	if m, clash := v.commonHeldLock(e1, e2); clash {
		res.Reason = fmt.Sprintf("racing accesses both inside critical sections on lock %d", m)
		return res
	}

	rng := rand.New(rand.NewSource(opts.Seed + 1))
	for try := 0; try < opts.Restarts; try++ {
		if w, ok := v.schedule(cut, e1, e2, rng); ok {
			if err := v.verify(w, e1, e2); err != nil {
				// The verifier is the soundness gate; a schedule that fails
				// it is discarded.
				continue
			}
			res.Vindicated = true
			res.Witness = w
			return res
		}
	}
	res.Reason = "no legal reordering found within restart budget"
	return res
}

// cone computes, per thread, the prefix of events that must appear in any
// witness for (e1, e2): the closure of the racing accesses' predecessors
// under program order, the constraint graph's cross-thread edges,
// last-writer dependencies, and lock-completion (an included acquire whose
// lock another included critical section also uses needs its release, and
// with it the release's program-order prefix). cut[t] is the number of
// t-events included. Returns ok=false if closure pulls e1 or e2 in (the
// pair is ordered, so no witness exists with them last).
func (v *Vindicator) cone(e1, e2 int) ([]int32, bool) {
	cut := make([]int32, len(v.byThread)) // number of events included per thread
	var stack []int32

	// pull includes every stacked event not yet in the cone, with its
	// program-order prefix, and chases what the included events depend on:
	// their graph predecessors and last writers.
	pull := func() (grew bool) {
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			t := v.tr.Events[i].T
			p := v.posInThread[i]
			if p < cut[t] {
				continue
			}
			for r := cut[t]; r <= p; r++ {
				j := v.byThread[t][r]
				stack = append(stack, v.g.Pred(j)...)
				if w := v.lastWriter[j]; w >= 0 {
					stack = append(stack, w)
				}
			}
			cut[t] = p + 1
			grew = true
		}
		return grew
	}

	// Seed: strict predecessors of the racing accesses.
	for _, e := range []int{e1, e2} {
		if p := v.posInThread[e]; p > 0 {
			stack = append(stack, v.byThread[v.tr.Events[e].T][p-1])
		}
		stack = append(stack, v.g.Pred(int32(e))...)
	}
	pull()

	// Lock completion to a fixpoint: if two threads' included prefixes both
	// acquire lock m, every included critical section on m except those
	// still open at the race must also include its release.
	type included struct{ threads, last int32 } // threads with included acquires of a lock; 1 + the last
	for changed := true; changed; {
		changed = false
		var incl locks[included]
		for t := range v.byThread {
			for r := int32(0); r < cut[t]; r++ {
				e := v.tr.Events[v.byThread[t][r]]
				if e.Op != trace.OpAcquire {
					continue
				}
				if in := incl.At(e.Targ); in.last != int32(t)+1 {
					in.last = int32(t) + 1
					in.threads++
				}
			}
		}
		for t := range v.byThread {
			for r := int32(0); r < cut[t]; r++ {
				i := v.byThread[t][r]
				e := v.tr.Events[i]
				if e.Op != trace.OpAcquire || incl.At(e.Targ).threads < 2 {
					continue
				}
				rel := v.matchRel[i]
				if rel < 0 || v.posInThread[rel] < cut[t] {
					continue
				}
				// Pull in the release (and its prefix) unless this is a
				// critical section containing the race itself.
				if int(i) <= e1 && e1 <= int(rel) && v.tr.Events[e1].T == e.T {
					continue
				}
				if int(i) <= e2 && e2 <= int(rel) && v.tr.Events[e2].T == e.T {
					continue
				}
				stack = append(stack, rel)
				changed = pull() || changed
			}
		}
	}

	// If closure swallowed a racing access, the pair is graph-ordered.
	if v.posInThread[e1] < cut[v.tr.Events[e1].T] || v.posInThread[e2] < cut[v.tr.Events[e2].T] {
		return nil, false
	}
	return cut, true
}

// commonHeldLock reports a lock held by both racing threads at their
// accesses (which makes adjacency impossible): of several, the one e2's
// thread acquired first.
func (v *Vindicator) commonHeldLock(e1, e2 int) (uint32, bool) {
	held := func(e int) (ms []uint32) {
		for _, i := range v.byThread[v.tr.Events[e].T][:v.posInThread[e]] {
			if rel := v.matchRel[i]; v.tr.Events[i].Op == trace.OpAcquire && (rel < 0 || int(rel) > e) {
				ms = append(ms, v.tr.Events[i].Targ)
			}
		}
		return ms
	}
	var h1 locks[bool]
	for _, m := range held(e1) {
		*h1.At(m) = true
	}
	for _, m := range held(e2) {
		if *h1.At(m) {
			return m, true
		}
	}
	return 0, false
}

// schedule greedily linearizes the cone plus the racing pair. Each step
// picks a random enabled thread; an event is enabled when its graph
// predecessors are scheduled, its lock (for acquires) is free, and (for
// reads) its original last writer is the witness's current last writer.
func (v *Vindicator) schedule(cut []int32, e1, e2 int, rng *rand.Rand) ([]trace.Event, bool) {
	tr := v.tr
	clear(v.ptr)
	defer v.undo()

	total := 0
	for t := range cut {
		total += int(cut[t])
	}

	// enabled reports whether event i can be scheduled next. The racing
	// accesses themselves are judged by co-enabledness (the formal race
	// definition asks that both be *about to execute*, not that they
	// execute), so a racing read is exempt from the last-writer rule.
	enabled := func(i int32, racing bool) bool {
		e := tr.Events[i]
		for _, pr := range v.g.Pred(i) {
			if !v.scheduled[pr] {
				return false
			}
		}
		switch e.Op {
		case trace.OpAcquire:
			if *v.held.At(e.Targ) {
				return false
			}
		case trace.OpRead:
			if !racing && *v.lastW.At(e.Targ)-1 != v.lastWriter[i] {
				return false
			}
		}
		return true
	}

	emit := func(i int32) {
		e := tr.Events[i]
		v.scheduled[i] = true
		v.trail = append(v.trail, i)
		switch e.Op {
		case trace.OpAcquire, trace.OpRelease:
			*v.held.At(e.Targ) = e.Op == trace.OpAcquire
		case trace.OpWrite:
			*v.lastW.At(e.Targ) = i + 1
		}
	}

	for emitted := 0; emitted < total; emitted++ {
		// Candidate threads whose next cone event is enabled.
		v.cand = v.cand[:0]
		for t := range v.byThread {
			if v.ptr[t] < cut[t] && enabled(v.byThread[t][v.ptr[t]], false) {
				v.cand = append(v.cand, t)
			}
		}
		if len(v.cand) == 0 {
			return nil, false // stuck: constraint deadlock under this order
		}
		t := v.cand[rng.Intn(len(v.cand))]
		emit(v.byThread[t][v.ptr[t]])
		v.ptr[t]++
	}
	// Finally the racing pair: both must be co-enabled in this state
	// (emitting e1 cannot disable e2 — accesses do not touch locks, and
	// racing reads are exempt from the last-writer rule).
	if !enabled(int32(e1), true) || !enabled(int32(e2), true) {
		return nil, false
	}
	emit(int32(e1))
	emit(int32(e2))
	out := make([]trace.Event, len(v.trail))
	for k, i := range v.trail {
		out[k] = tr.Events[i]
	}
	return out, true
}

// undo takes back what a try emitted, so the next one starts from clean
// scratch at a cost set by the cone, not the trace.
func (v *Vindicator) undo() {
	for _, i := range v.trail {
		v.scheduled[i] = false
		switch e := v.tr.Events[i]; e.Op {
		case trace.OpAcquire, trace.OpRelease:
			*v.held.At(e.Targ) = false
		case trace.OpWrite:
			*v.lastW.At(e.Targ) = 0
		}
	}
	v.trail = v.trail[:0]
}

// Verify independently checks that witness is a predicted trace of tr
// exposing a race between tr's events e1 and e2: witness events are a
// per-thread program-order prefix-respecting subsequence of tr, the
// witness passes trace.Checker (locking and the thread lifecycle: no
// thread runs before its fork), every read has the same last writer as in
// tr, and the final two events are the conflicting pair with no
// intervening event. It reads tr alone — no replay, no graph — and returns
// an error for an ill-formed tr or out-of-range indices.
func Verify(tr *trace.Trace, witness []trace.Event, e1, e2 int) error {
	x, err := newIndex(tr)
	if err != nil {
		return err
	}
	if e1 < 0 || e1 >= tr.Len() || e2 < 0 || e2 >= tr.Len() {
		return fmt.Errorf("vindicate: racing pair (%d, %d) out of range (trace has %d events)", e1, e2, tr.Len())
	}
	return x.verify(witness, e1, e2)
}

// verify is Verify over the trace's index: the gate every candidate witness
// of the search passes, held to trace.Checker's rules as Check holds tr.
func (x *index) verify(witness []trace.Event, e1, e2 int) error {
	tr := x.tr
	if len(witness) < 2 {
		return fmt.Errorf("vindicate: witness too short")
	}

	// Map witness events back to trace indices: per-thread subsequence
	// matching (greedy — witness events must appear in each thread's
	// original order).
	next := make([]int32, len(x.byThread))
	idxOf := make([]int32, len(witness))
	for wi, e := range witness {
		found := int32(-1)
		if t := int(e.T); t < len(x.byThread) { // an event of a thread tr never runs matches nothing
			for r := next[t]; r < int32(len(x.byThread[t])); r++ {
				j := x.byThread[t][r]
				if tr.Events[j] == e {
					found = j
					next[t] = r + 1
					break
				}
			}
		}
		if found < 0 {
			return fmt.Errorf("vindicate: witness event %d (%v) is not a program-order subsequence", wi, e)
		}
		idxOf[wi] = found
	}
	// The paper's predicted-trace definition requires per-thread *prefixes*
	// implicitly via PO preservation only; we additionally scheduled
	// prefixes, but verification only demands PO order, checked above.

	// Well-formed locking and thread lifecycle, by the rules tr was held to.
	if _, err := trace.NewChecker().Run(witness); err != nil {
		return fmt.Errorf("vindicate: ill-formed witness: %w", err)
	}

	// Same last writer for every read. The final two events are the racing
	// pair, which the formal definition only requires to be co-enabled —
	// they do not "execute", so a racing read is exempt (its value is
	// exactly what the race would corrupt).
	var lastW vars[int32] // the variable's last write so far + 1
	for wi, e := range witness {
		i := idxOf[wi]
		switch e.Op {
		case trace.OpRead:
			if got, want := *lastW.At(e.Targ)-1, x.lastWriter[i]; got != want && wi < len(witness)-2 {
				return fmt.Errorf("vindicate: witness read %d has last writer %d, original %d", wi, got, want)
			}
		case trace.OpWrite:
			*lastW.At(e.Targ) = i + 1
		}
	}

	// The racing pair must be the final two events.
	if idxOf[len(witness)-2] != int32(e1) || idxOf[len(witness)-1] != int32(e2) {
		return fmt.Errorf("vindicate: witness does not end with the racing pair")
	}
	if !conflict(tr.Events[e1], tr.Events[e2]) {
		return fmt.Errorf("vindicate: final pair does not conflict")
	}
	return nil
}
