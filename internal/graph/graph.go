// Package graph holds the event constraint graph the "w/G" analyses build
// during unoptimized predictive analysis (Roemer et al. 2018): nodes are
// trace event indices, edges are cross-thread ordering constraints —
// rule (a) and rule (b) edges, fork/join, volatile, class-init, and
// last-writer edges. Program order is implicit (events of one thread are
// ordered by trace index). Vindication consumes the graph to construct a
// witness reordering.
package graph

import (
	"slices"

	"repro/internal/report"
)

// chunkEdges is how many edges one chunk holds (64 KiB). The edge list only
// grows and is only read whole, so it is kept as full chunks plus a partial
// last one: recording an edge never copies the edges before it.
const chunkEdges = 8192

// Graph is an event constraint graph over a trace of N events. Edge extends
// N to cover its endpoints; an analysis that builds the graph over a stream
// sets N to the events processed when it hands the graph out, so recording
// is the only per-event work.
type Graph struct {
	_      report.Pad
	N      int
	chunks [][][2]int32 // in recording order, each at full length
	cur    [][2]int32   // the filled prefix of the last chunk

	adj  [][]int32 // built when Succ is first asked
	radj [][]int32 // built when Pred is first asked (all that vindication reads)
	_    report.Pad
}

// New returns an empty graph over n events.
func New(n int) *Graph { return &Graph{N: n} }

// Edge records the constraint src before dst. It implements
// analysis.Hook. Self and negative edges are ignored.
func (g *Graph) Edge(src, dst int32) {
	if src < 0 || src == dst {
		return
	}
	if len(g.cur) == cap(g.cur) {
		chunk := make([][2]int32, chunkEdges)
		g.chunks, g.cur = append(g.chunks, chunk), chunk[:0]
	}
	g.cur = append(g.cur, [2]int32{src, dst})
	if m := int(max(src, dst)); m >= g.N {
		g.N = m + 1
	}
	if g.adj != nil || g.radj != nil {
		g.adj, g.radj = nil, nil
	}
}

// Len returns the number of recorded cross-thread edges.
func (g *Graph) Len() int {
	return max(len(g.chunks)-1, 0)*chunkEdges + len(g.cur)
}

// Edges returns a copy of the edge list, in recording order.
func (g *Graph) Edges() [][2]int32 {
	return slices.Concat(g.chunks...)[:g.Len()]
}

// adjacency groups the recorded edges by their from-end: list[e[from]] holds
// every e[1-from], sorted, duplicates dropped.
func (g *Graph) adjacency(from int) [][]int32 {
	list := make([][]int32, g.N)
	for i, c := range g.chunks {
		if i == len(g.chunks)-1 {
			c = g.cur
		}
		for _, e := range c {
			list[e[from]] = append(list[e[from]], e[1-from])
		}
	}
	for i := range list {
		sortDedup(&list[i])
	}
	return list
}

func sortDedup(s *[]int32) {
	slices.Sort(*s)
	*s = slices.Compact(*s)
}

// Succ returns the cross-thread successors of event i. Indices beyond the
// observed event space have no edges.
func (g *Graph) Succ(i int32) []int32 {
	if g.adj == nil {
		g.adj = g.adjacency(0)
	}
	if int(i) >= len(g.adj) {
		return nil
	}
	return g.adj[i]
}

// Pred returns the cross-thread predecessors of event i. Indices beyond the
// observed event space have no edges.
func (g *Graph) Pred(i int32) []int32 {
	if g.radj == nil {
		g.radj = g.adjacency(1)
	}
	if int(i) >= len(g.radj) {
		return nil
	}
	return g.radj[i]
}

// Weight estimates the graph's retained memory in 8-byte words — the
// "w/G" analyses' extra footprint: the edge chunks at their capacity, the
// chunk table, and whichever adjacency lists have been built.
func (g *Graph) Weight() int {
	w := (3 + chunkEdges) * len(g.chunks)
	for _, list := range [][][]int32{g.adj, g.radj} {
		w += 3 * len(list)
		for i := range list {
			w += (cap(list[i]) + 1) / 2
		}
	}
	return w
}
