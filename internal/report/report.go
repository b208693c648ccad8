// Package report collects data races detected by an analysis and produces
// the paper's two headline counts: statically distinct races (distinct
// program locations, Table 7's first number) and total dynamic races (the
// parenthesized number).
package report

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Race describes one dynamic race detection: the access that failed a race
// check, plus the prior-access epoch information the analysis had.
type Race struct {
	// Loc is the static program location of the detecting access.
	Loc trace.Loc
	// Var is the variable the race is on.
	Var uint32
	// Tid is the thread executing the detecting access.
	Tid trace.Tid
	// Write reports whether the detecting access is a write.
	Write bool
	// Index is the trace index of the detecting access (or the event
	// sequence number for online detection).
	Index int
	// PriorTid is the thread of a conflicting prior access, when the
	// analysis has it in epoch form (best effort; 0xFFFF if unknown).
	PriorTid trace.Tid
}

// UnknownTid marks a Race whose prior thread was not recoverable (e.g. a
// vector-clock comparison that failed on several components).
const UnknownTid trace.Tid = 0xFFFF

func (r Race) String() string {
	kind := "rd"
	if r.Write {
		kind = "wr"
	}
	return fmt.Sprintf("race on x%d at loc%d (T%d %s, event %d)", r.Var, r.Loc, r.Tid, kind, r.Index)
}

// Pad is one cache line of nothing. The computations of one engine run on
// different cores (race/pipeline.go) while the allocator packs their headers
// side by side, so every struct that takes a store per event, access or race
// begins and ends with a Pad: whatever the neighbours are, no line it writes
// holds a byte another computation touches. It is declared here because this
// is the one package every analysis package imports.
type Pad [64]byte

// Collector accumulates dynamic races. Following §5.1, multiple failed
// checks at one access count as a single dynamic race: analyses must call
// Add at most once per access event (the engines guarantee this).
//
// Add is the analyses' hot path and only appends. The sets behind Static,
// StaticLocs and RaceVars are derived from the race list when asked for,
// and extended — not rebuilt — over the races added since. Like the list
// itself they must not be read while another goroutine is adding; readers
// may run concurrently with each other (a finished report is served to
// many requests).
type Collector struct {
	_     Pad
	races []Race

	mu      sync.Mutex  // guards the derived sets below
	indexed int         // races[:indexed] are in the sets
	locs    []trace.Loc // racing program locations, sorted
	vars    []uint32    // variables with a race, sorted
	_       Pad
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add records one dynamic race.
func (c *Collector) Add(r Race) { c.races = append(c.races, r) }

// lockSets locks c.mu and brings the derived sets up to date with the race
// list; the caller reads them and unlocks.
func (c *Collector) lockSets() {
	c.mu.Lock()
	if c.indexed == len(c.races) {
		return
	}
	fresh := c.races[c.indexed:]
	c.locs, c.vars = slices.Grow(c.locs, len(fresh)), slices.Grow(c.vars, len(fresh))
	for _, r := range fresh {
		c.locs = append(c.locs, r.Loc)
		c.vars = append(c.vars, r.Var)
	}
	c.indexed = len(c.races)
	slices.Sort(c.locs)
	c.locs = slices.Compact(c.locs)
	slices.Sort(c.vars)
	c.vars = slices.Compact(c.vars)
}

// Dynamic returns the total number of dynamic races.
func (c *Collector) Dynamic() int { return len(c.races) }

// RaceCount returns the number of dynamic races recorded so far — the
// cheap polling primitive for online delivery: callers watching a live
// analysis compare RaceCount against a cursor and fetch only the new races
// (RaceAt), instead of materializing the full race slice per event. It is
// Dynamic under the name the polling contract documents.
func (c *Collector) RaceCount() int { return c.Dynamic() }

// RaceAt returns the i-th dynamic race in detection order.
func (c *Collector) RaceAt(i int) Race { return c.races[i] }

// Static returns the number of statically distinct races (program
// locations).
func (c *Collector) Static() int {
	c.lockSets()
	defer c.mu.Unlock()
	return len(c.locs)
}

// Races returns all dynamic races in detection order. The returned slice is
// owned by the collector.
func (c *Collector) Races() []Race { return c.races }

// RaceVars returns the sorted set of variables with at least one race —
// the quantity the cross-analysis property tests compare.
func (c *Collector) RaceVars() []uint32 {
	c.lockSets()
	defer c.mu.Unlock()
	return slices.Clone(c.vars)
}

// FirstRace returns the first dynamic race on variable v, if any, by
// scanning the race list: it serves the figure tables, whose traces have a
// handful of races.
func (c *Collector) FirstRace(v uint32) (Race, bool) {
	for _, r := range c.races {
		if r.Var == v {
			return r, true
		}
	}
	return Race{}, false
}

// StaticLocs returns the sorted racing program locations.
func (c *Collector) StaticLocs() []trace.Loc {
	c.lockSets()
	defer c.mu.Unlock()
	return slices.Clone(c.locs)
}
