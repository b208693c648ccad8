// Package graph holds the event constraint graph the "w/G" analyses build
// during unoptimized predictive analysis (Roemer et al. 2018): nodes are
// trace event indices, edges are cross-thread ordering constraints —
// rule (a) and rule (b) edges, fork/join, volatile, class-init, and
// last-writer edges. Program order is implicit (events of one thread are
// ordered by trace index). Vindication consumes the graph to construct a
// witness reordering.
package graph

import (
	"encoding/binary"
	"slices"

	"repro/internal/report"
)

// The edge list only grows and is only read whole, so it is kept as a
// sequence of 64 KiB byte chunks: recording an edge never copies the edges
// before it. An edge is two zigzag varints, its dst minus the previous
// edge's dst, then its dst minus its src. Analyses draw each edge into the
// event they are processing, so the first delta is almost always 0 or
// small, and the second is the edge's reach back in the trace: 3.4–3.8
// bytes an edge on h2 against 8 for the pair of int32s. Both ends are
// non-negative int32s, so each delta fits an int32 and its varint takes at
// most MaxVarintLen32 bytes; a chunk with less than edgeRoom left is closed
// and a new one started.
const (
	chunkBytes = 64 << 10
	edgeRoom   = 2 * binary.MaxVarintLen32
)

// Graph is an event constraint graph over a trace of N events. Edge extends
// N to cover its endpoints; an analysis that builds the graph over a stream
// sets N to the events processed when it hands the graph out, so recording
// is the only per-event work.
type Graph struct {
	_      report.Pad
	N      int
	edges  int      // recorded so far
	last   int32    // the last recorded edge's dst
	used   int      // bytes written to cur
	cur    []byte   // the open chunk, at full length
	chunks [][]byte // the closed chunks in recording order, each at its written length

	// The predecessor index, built when Pred is first asked (all that
	// vindication reads): the predecessors of event i are
	// from[off[i]:off[i+1]], sorted, duplicates dropped.
	off  []int32
	from []int32
	_    report.Pad
}

// New returns an empty graph over n events.
func New(n int) *Graph { return &Graph{N: n} }

// Edge records the constraint src before dst. It implements
// analysis.Hook. Self edges and edges with a negative end are ignored.
func (g *Graph) Edge(src, dst int32) {
	if src|dst < 0 || src == dst {
		return
	}
	if g.used > len(g.cur)-edgeRoom {
		if g.cur != nil {
			g.chunks = append(g.chunks, g.cur[:g.used])
		}
		g.cur, g.used = make([]byte, chunkBytes), 0
	}
	i := putVarint(g.cur, g.used, dst-g.last)
	g.used = putVarint(g.cur, i, dst-src)
	g.last = dst
	g.edges++
	if m := int(max(src, dst)); m >= g.N {
		g.N = m + 1
	}
	if g.off != nil {
		g.off, g.from = nil, nil
	}
}

// putVarint writes d zigzag-encoded as a varint at b[i:] and returns the
// offset past it: the encoding binary.PutVarint gives, without its call.
func putVarint(b []byte, i int, d int32) int {
	v := uint32(d<<1) ^ uint32(d>>31)
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}

// each calls f on every recorded edge, in recording order.
func (g *Graph) each(f func(src, dst int32)) {
	var dst int32
	for c := 0; c <= len(g.chunks); c++ {
		b := g.cur[:g.used]
		if c < len(g.chunks) {
			b = g.chunks[c]
		}
		for len(b) > 0 {
			dd, n := binary.Varint(b)
			back, m := binary.Varint(b[n:])
			b = b[n+m:]
			dst += int32(dd)
			f(dst-int32(back), dst)
		}
	}
}

// Len returns the number of recorded cross-thread edges.
func (g *Graph) Len() int { return g.edges }

// Edges returns a copy of the edge list, in recording order.
func (g *Graph) Edges() [][2]int32 {
	list := make([][2]int32, 0, g.Len())
	g.each(func(src, dst int32) { list = append(list, [2]int32{src, dst}) })
	return list
}

// Pred returns the cross-thread predecessors of event i, sorted. Indices
// beyond the observed event space have no edges.
func (g *Graph) Pred(i int32) []int32 {
	if g.off == nil {
		g.buildPred()
	}
	if int(i) >= len(g.off)-1 {
		return nil
	}
	lo, hi := g.off[i], g.off[i+1]
	return g.from[lo:hi:hi]
}

// buildPred builds the predecessor index: one count pass over the edges,
// one placing pass, then each row sorted and deduplicated in place.
func (g *Graph) buildPred() {
	off := make([]int32, g.N+1)
	g.each(func(_, dst int32) { off[dst]++ })
	// off[i] becomes the end of row i; placing a row's edges steps it back
	// to the row's start.
	var end int32
	for i := range off[:g.N] {
		end += off[i]
		off[i] = end
	}
	off[g.N] = end
	from := make([]int32, end)
	g.each(func(src, dst int32) {
		off[dst]--
		from[off[dst]] = src
	})
	// Close the gaps dropped duplicates leave: row i moves down to w.
	var w int32
	for i := range off[:g.N] {
		row := from[off[i]:off[i+1]]
		slices.Sort(row)
		off[i] = w
		w += int32(copy(from[w:], slices.Compact(row)))
	}
	off[g.N] = w
	g.off, g.from = off, from[:w]
}

// Weight estimates the graph's retained memory in 8-byte words — the
// "w/G" analyses' extra footprint: the edge chunks at their capacity, the
// chunk table, and the predecessor index once built.
func (g *Graph) Weight() int {
	chunks := len(g.chunks)
	if g.cur != nil {
		chunks++
	}
	w := (3 + chunkBytes/8) * chunks
	if g.off != nil {
		w += 6 + (cap(g.off)+cap(g.from)+1)/2
	}
	return w
}
