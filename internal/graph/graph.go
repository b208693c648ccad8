// Package graph holds the event constraint graph the "w/G" analyses build
// during unoptimized predictive analysis (Roemer et al. 2018): nodes are
// trace event indices, edges are cross-thread ordering constraints —
// rule (a) and rule (b) edges, fork/join, volatile, class-init, and
// last-writer edges. Program order is implicit (events of one thread are
// ordered by trace index), so an edge that program order and another edge
// imply need not be recorded, and Edge records none: of the edges from one
// thread into another it keeps only those whose source is later than every
// source kept before. Vindication consumes the graph — which events reach
// which over edges and program order, unchanged by the dropped edges — to
// construct a witness reordering.
package graph

import (
	"encoding/binary"
	"slices"

	"repro/internal/report"
	"repro/internal/trace"
)

// The edge list only grows and is only read whole, so it is kept as a
// sequence of 8 KiB byte chunks: recording an edge never copies the edges
// before it. An edge is two zigzag varints, its dst minus the previous
// edge's dst, then its dst minus its src. Analyses draw each edge into the
// event they are processing, so the first delta is almost always 0 or
// small, and the second is the edge's reach back in the trace: 3.1 bytes
// an edge for WCP's graph on h2 and 3.5 for DC's, against 8 for the pair
// of int32s. Both ends are non-negative int32s, so each delta fits an
// int32 and its varint takes at most MaxVarintLen32 bytes; a chunk with
// less than edgeRoom left is closed and a new one started. A chunk is 8 KiB
// because the graphs are small once implied edges are dropped (WDC's on h2
// is about 31 KB): a 64 KiB chunk would be mostly slack.
const (
	chunkBytes = 8 << 10
	edgeRoom   = 2 * binary.MaxVarintLen32
)

// Graph is an event constraint graph over a trace of N events; its zero
// value is an empty graph. Edge extends N to cover its endpoints; an
// analysis that builds the graph over a stream sets N to the events
// processed when it hands the graph out, so recording is the only per-event
// work.
type Graph struct {
	_      report.Pad
	N      int
	edges  int      // recorded so far
	last   int32    // the last recorded edge's dst
	used   int      // bytes written to cur
	cur    []byte   // the open chunk, at full length
	chunks [][]byte // the closed chunks in recording order, each at its written length

	// latest[to][from] is one past the latest source Edge has recorded from
	// thread from into thread to, 0 for none; rows grow to the thread ids
	// seen.
	latest [][]uint32

	// The predecessor index, built when Pred is first asked (all that
	// vindication reads): the predecessors of event i are
	// from[off[i]:off[i+1]], sorted.
	off  []int32
	from []int32
	_    report.Pad
}

// Edge records the constraint src before dst, by threads from and to, unless
// program order and an edge already recorded imply it. It implements
// analysis.Hook, whose edges point into the event being processed: the
// destinations of the edges into one thread arrive in program order. Two
// kinds of edge are dropped:
//
//   - an edge within one thread (self edges included), which program order
//     implies;
//   - an edge whose source is no later than the latest source recorded from
//     from into to. That edge s′ → d′ was recorded earlier, so d′ is dst or
//     before it in to, and src is s′ or before it in from: src ≤ s′ → d′ ≤
//     dst.
//
// So every event is reached by the same events over the recorded edges and
// program order as over all of them, and the enabledness vindication's
// schedule tests — every predecessor emitted, each thread emitting in
// program order — is the same too. No (src, dst) pair is recorded twice.
// Edges with a negative end are ignored.
func (g *Graph) Edge(src, dst int32, from, to trace.Tid) {
	if src|dst < 0 || from == to {
		return
	}
	if int(to) >= len(g.latest) {
		g.latest = append(g.latest, make([][]uint32, int(to)+1-len(g.latest))...)
	}
	row := g.latest[to]
	if int(from) >= len(row) {
		row = append(row, make([]uint32, int(from)+1-len(row))...)
		g.latest[to] = row
	}
	if uint32(src) < row[from] {
		return
	}
	row[from] = uint32(src) + 1
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
// one placing pass, then each row sorted in place. Edge records no pair
// twice, so no row holds a duplicate.
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
	for i := range off[:g.N] {
		slices.Sort(from[off[i]:off[i+1]])
	}
	g.off, g.from = off, from
}

// Weight estimates the graph's retained memory in 8-byte words — the
// "w/G" analyses' extra footprint: the edge chunks at their capacity, the
// chunk table, the per-thread-pair table of latest sources, and the
// predecessor index once built.
func (g *Graph) Weight() int {
	chunks := len(g.chunks)
	if g.cur != nil {
		chunks++
	}
	w := (3+chunkBytes/8)*chunks + 3*cap(g.latest)
	for _, row := range g.latest {
		w += (cap(row) + 1) / 2
	}
	if g.off != nil {
		w += 6 + (cap(g.off)+cap(g.from)+1)/2
	}
	return w
}
