// Package graph holds the event constraint graph the "w/G" analyses build
// during unoptimized predictive analysis (Roemer et al. 2018): nodes are
// trace event indices, edges are cross-thread ordering constraints —
// rule (a) and rule (b) edges, fork/join, volatile, class-init, and
// last-writer edges. Program order is implicit (events of one thread are
// ordered by trace index). Vindication consumes the graph to construct a
// witness reordering.
package graph

import "slices"

// chunkEdges is how many edges one chunk holds (64 KiB). The edge list only
// grows and is only read whole, so it is kept as full chunks plus a partial
// last one: recording an edge never copies the edges before it.
const chunkEdges = 8192

// Graph is an event constraint graph over a trace of N events. N grows as
// events are observed, so a graph can be built over a stream whose length
// is not known up front.
type Graph struct {
	N      int
	chunks [][][2]int32 // in recording order; every chunk but the last is full

	adj  [][]int32 // built on demand by Succ/Pred
	radj [][]int32
}

// New returns an empty graph over n events (a capacity hint; Observe and
// Edge extend N on demand).
func New(n int) *Graph { return &Graph{N: n} }

// Observe extends the graph's event space to cover index i. Streaming
// analyses call it per event so that N always equals the number of events
// processed, whether or not the event contributed an edge.
func (g *Graph) Observe(i int32) {
	if int(i) >= g.N {
		g.N = int(i) + 1
		g.adj, g.radj = nil, nil
	}
}

// Edge records the constraint src before dst. It implements
// analysis.Hook. Self and negative edges are ignored.
func (g *Graph) Edge(src, dst int32) {
	if src < 0 || src == dst {
		return
	}
	g.Observe(src)
	g.Observe(dst)
	last := len(g.chunks) - 1
	if last < 0 || len(g.chunks[last]) == chunkEdges {
		g.chunks = append(g.chunks, make([][2]int32, 0, chunkEdges))
		last++
	}
	g.chunks[last] = append(g.chunks[last], [2]int32{src, dst})
	g.adj, g.radj = nil, nil
}

// Len returns the number of recorded cross-thread edges.
func (g *Graph) Len() int {
	if len(g.chunks) == 0 {
		return 0
	}
	return (len(g.chunks)-1)*chunkEdges + len(g.chunks[len(g.chunks)-1])
}

// Edges returns a copy of the edge list, in recording order.
func (g *Graph) Edges() [][2]int32 {
	return slices.Concat(g.chunks...)
}

func (g *Graph) build() {
	if g.adj != nil {
		return
	}
	g.adj = make([][]int32, g.N)
	g.radj = make([][]int32, g.N)
	for _, c := range g.chunks {
		for _, e := range c {
			g.adj[e[0]] = append(g.adj[e[0]], e[1])
			g.radj[e[1]] = append(g.radj[e[1]], e[0])
		}
	}
	for i := range g.adj {
		sortDedup(&g.adj[i])
		sortDedup(&g.radj[i])
	}
}

func sortDedup(s *[]int32) {
	slices.Sort(*s)
	*s = slices.Compact(*s)
}

// Succ returns the cross-thread successors of event i. Indices beyond the
// observed event space have no edges.
func (g *Graph) Succ(i int32) []int32 {
	g.build()
	if int(i) >= len(g.adj) {
		return nil
	}
	return g.adj[i]
}

// Pred returns the cross-thread predecessors of event i. Indices beyond the
// observed event space have no edges.
func (g *Graph) Pred(i int32) []int32 {
	g.build()
	if int(i) >= len(g.radj) {
		return nil
	}
	return g.radj[i]
}

// Weight estimates the graph's retained memory in 8-byte words — the
// "w/G" analyses' extra footprint: the edge chunks at their capacity, the
// chunk table, and the adjacency lists once built.
func (g *Graph) Weight() int {
	w := (3 + chunkEdges) * len(g.chunks)
	if g.adj != nil {
		w += 2 * 3 * g.N
		for i := range g.adj {
			w += (cap(g.adj[i]) + cap(g.radj[i]) + 1) / 2
		}
	}
	return w
}
