package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

func TestEdgeRecording(t *testing.T) {
	// Events 0 and 4 are T0's, 1 and 5 T1's, 2 T2's.
	g := new(Graph)
	g.Edge(0, 2, 0, 2)
	g.Edge(1, 2, 1, 2)
	g.Edge(0, 2, 0, 2) // a repeat: dropped
	g.Edge(4, 5, 0, 1)
	g.Edge(0, 5, 0, 1) // 0 before 4 → 5: dropped
	if g.Len() != 3 {
		t.Fatalf("Len = %d, edges %v", g.Len(), g.Edges())
	}
	if got := g.Pred(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Pred(2) = %v", got)
	}
	if got := g.Pred(5); !slices.Equal(got, []int32{4}) {
		t.Errorf("Pred(5) = %v, want [4]", got)
	}
	if got := g.Pred(3); len(got) != 0 {
		t.Errorf("Pred(3) = %v", got)
	}
	if got := g.Pred(9); got != nil {
		t.Errorf("Pred(9), past N, = %v", got)
	}
}

func TestEdgeIgnoresInvalid(t *testing.T) {
	g := new(Graph)
	g.Edge(-1, 1, 0, 1) // unknown source (e.g. no prior volatile write)
	g.Edge(1, -1, 1, 0)
	g.Edge(2, 2, 1, 1) // self edge
	g.Edge(0, 2, 1, 1) // within one thread: program order
	if g.Len() != 0 {
		t.Errorf("invalid edges recorded: %v", g.Edges())
	}
}

func TestPredInvalidatedByNewEdges(t *testing.T) {
	g := new(Graph)
	g.Edge(0, 1, 0, 1)
	if len(g.Pred(1)) != 1 {
		t.Fatal("first build")
	}
	g.Edge(2, 1, 2, 1)
	if got := g.Pred(1); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("Pred(1) = %v after Edge, want [0 2]", got)
	}
}

// TestPredRowsDoNotShareCapacity: appending to one row must not write
// into the next, which lies behind it in the same array.
func TestPredRowsDoNotShareCapacity(t *testing.T) {
	g := new(Graph)
	g.Edge(0, 1, 0, 1)
	g.Edge(0, 2, 0, 2)
	_ = append(g.Pred(1), 3)
	if got := g.Pred(2); !slices.Equal(got, []int32{0}) {
		t.Errorf("Pred(2) = %v after an append to Pred(1)", got)
	}
}

func TestWeight(t *testing.T) {
	g := new(Graph)
	if g.Weight() != 0 {
		t.Error("empty graph weighs 0")
	}
	g.Edge(0, 1, 0, 1)
	if g.Weight() < chunkBytes/8 {
		t.Error("a recorded edge must count its chunk")
	}
	before := g.Weight()
	g.Pred(1) // build the index
	if g.Weight() <= before {
		t.Error("the predecessor index must have weight")
	}
	wide := new(Graph)
	wide.Edge(0, 1, 900, 901) // 902 rows, one of 901 latest sources
	if d := wide.Weight() - before; d < 3*902+901/2 {
		t.Errorf("an edge between threads 900 and 901 weighs %d words more than one between 0 and 1; the thread-pair table alone is %d", d, 3*902+901/2)
	}
}

// keeps is the rule Edge applies, kept apart from it: of the edges from one
// thread into another, only one whose source is later than every source
// kept before between them, and none within a thread or with a negative
// end. It records a kept edge's source in latest.
func keeps(latest map[[2]trace.Tid]int32, src, dst int32, from, to trace.Tid) bool {
	if src < 0 || dst < 0 || from == to {
		return false
	}
	pair := [2]trace.Tid{from, to}
	if l, ok := latest[pair]; ok && src <= l {
		return false
	}
	latest[pair] = src
	return true
}

// varintLen is the encoded size of d, by encoding/binary.
func varintLen(d int32) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutVarint(buf[:], int64(d))
}

// TestChunkedEdgesMatchNaiveModel records three full chunks and one edge more
// and holds Len, Edges and Pred to a plain edge list under the rule, and
// sorted sets, and the chunks to the encoding/binary sizes of the two
// deltas per edge. The edges fall in a window that moves up the trace, so
// the rule keeps many of them, with threads by event index mod 7; now and
// then one between two threads of their own reaches far, for 4-byte deltas.
func TestChunkedEdgesMatchNaiveModel(t *testing.T) {
	const window = 500
	g := new(Graph)
	var want [][2]int32
	latest := map[[2]trace.Tid]int32{}
	pred := map[int32][]int32{}
	rng := rand.New(rand.NewSource(1))
	bytes, last, nodes := 0, int32(0), int32(0)
	for i := 0; len(g.chunks) < 3; i++ {
		base := int32(i / 4)
		src, dst := base+int32(rng.Intn(window)), base+int32(rng.Intn(window))
		from, to := trace.Tid(src%7), trace.Tid(dst%7)
		if rng.Intn(64) == 0 {
			dst = int32(rng.Intn(1 << 22))
			src = dst - int32(rng.Intn(1<<21))
			from, to = 7, 8
		}
		g.Edge(src, dst, from, to)
		if !keeps(latest, src, dst, from, to) {
			continue
		}
		want = append(want, [2]int32{src, dst})
		pred[dst] = append(pred[dst], src)
		bytes += varintLen(dst-last) + varintLen(dst-src)
		last = dst
		nodes = base + window
	}
	if g.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(want))
	}
	total := g.used
	for i, c := range g.chunks {
		if len(c) <= chunkBytes-edgeRoom || cap(c) != chunkBytes {
			t.Errorf("chunk %d closed at %d of %d bytes; want it closed only with fewer than %d left", i, len(c), cap(c), edgeRoom)
		}
		total += len(c)
	}
	if e := want[len(want)-1]; g.used != varintLen(e[1]-want[len(want)-2][1])+varintLen(e[1]-e[0]) {
		t.Errorf("the open chunk holds %d bytes; want the one edge that opened it", g.used)
	}
	if total != bytes {
		t.Errorf("chunks hold %d bytes; the two varint deltas of every edge take %d", total, bytes)
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatal("Edges() is not the kept sequence")
	}
	for i := int32(0); i < nodes; i++ {
		row := pred[i]
		slices.Sort(row)
		if !slices.Equal(g.Pred(i), row) {
			t.Fatalf("node %d: Pred %v, want %v", i, g.Pred(i), row)
		}
	}
	if w := g.Weight(); w < 4*chunkBytes/8 {
		t.Errorf("Weight = %d words, must count four chunks at capacity", w)
	}
}

// fuzzValue maps one byte to an edge end: mostly small, some negative, and
// the values whose deltas take every varint length, up to MaxInt32.
func fuzzValue(b byte) int32 {
	special := [...]int32{math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32 - 127, math.MinInt32,
		-1, 1<<7 - 1, 1 << 7, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28,
		0xffff, 0x10000, 0x10001}
	if i := int(b) - (256 - len(special)); i >= 0 {
		return special[i]
	}
	return int32(b) - 16
}

// FuzzGraphEdges records an arbitrary (src, dst) sequence, each event on
// thread event mod 3, repeated with every non-negative end moved 8 later
// per repetition so that it crosses chunk boundaries, and holds Edges, Len
// and N to the input filtered by the rule (keeps), and — where the event
// space is small enough to index — every Pred row to a sorted set.
func FuzzGraphEdges(f *testing.F) {
	f.Add(uint16(0), []byte{16, 18, 17, 18, 16, 18, 20, 19})
	f.Add(uint16(3000), []byte{16, 255, 255, 16, 240, 241, 0, 17, 17, 17})
	f.Add(uint16(9000), []byte{30, 250, 252, 253, 254, 20, 251, 16})
	f.Fuzz(func(t *testing.T, repeat uint16, data []byte) {
		if len(data) < 2 {
			return
		}
		g := new(Graph)
		var want [][2]int32
		latest := map[[2]trace.Tid]int32{}
		n := 0
		pairs := len(data) / 2
		moved := func(b byte, r int) int32 {
			v := fuzzValue(b)
			if v < 0 {
				return v
			}
			return int32(min(int64(v)+8*int64(r), math.MaxInt32))
		}
		for r := 0; r <= int(repeat) && len(want) < 1<<17; r++ {
			for p := 0; p < pairs; p++ {
				src, dst := moved(data[2*p], r), moved(data[2*p+1], r)
				from, to := trace.Tid(uint32(src)%3), trace.Tid(uint32(dst)%3)
				g.Edge(src, dst, from, to)
				if !keeps(latest, src, dst, from, to) {
					continue
				}
				want = append(want, [2]int32{src, dst})
				n = max(n, int(src)+1, int(dst)+1)
			}
		}
		if g.Len() != len(want) || g.N != n {
			t.Fatalf("Len = %d, N = %d; want %d, %d", g.Len(), g.N, len(want), n)
		}
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("Edges() differs from the %d kept edges", len(want))
		}
		if n > 1<<17 {
			return // an index over MaxInt32 events is not worth building here
		}
		rows := make([][]int32, n)
		for _, e := range want {
			rows[e[1]] = append(rows[e[1]], e[0])
		}
		for i, row := range rows {
			slices.Sort(row)
			if got := g.Pred(int32(i)); !slices.Equal(got, row) {
				t.Fatalf("Pred(%d) = %v, want %v", i, got, row)
			}
		}
		if g.Pred(int32(n)) != nil {
			t.Fatalf("Pred(%d), past N, is not empty", n)
		}
	})
}

// BenchmarkEdge prices recording one constraint edge, chunk allocation
// amortized in.
func BenchmarkEdge(b *testing.B) {
	b.ReportAllocs()
	g := new(Graph)
	for i := 0; i < b.N; i++ {
		g.Edge(int32(i), int32(i)+1, 0, 1)
	}
}
