package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestEdgeRecording(t *testing.T) {
	g := New(6)
	g.Edge(0, 2)
	g.Edge(1, 2)
	g.Edge(0, 2) // duplicate kept in raw list, deduped in adjacency
	g.Edge(4, 5)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.Pred(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Pred(2) = %v", got)
	}
	if got := g.Succ(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("Succ(0) = %v", got)
	}
	if got := g.Succ(3); len(got) != 0 {
		t.Errorf("Succ(3) = %v", got)
	}
}

func TestEdgeIgnoresInvalid(t *testing.T) {
	g := New(3)
	g.Edge(-1, 1) // unknown source (e.g. no prior volatile write)
	g.Edge(2, 2)  // self edge
	if g.Len() != 0 {
		t.Errorf("invalid edges recorded: %v", g.Edges())
	}
}

func TestAdjacencyInvalidatedByNewEdges(t *testing.T) {
	g := New(4)
	g.Edge(0, 1)
	if len(g.Succ(0)) != 1 {
		t.Fatal("first build")
	}
	g.Edge(0, 2)
	if len(g.Succ(0)) != 2 {
		t.Error("adjacency must rebuild after Edge")
	}
}

func TestWeight(t *testing.T) {
	g := New(4)
	if g.Weight() != 0 {
		t.Error("empty graph weighs 0")
	}
	g.Edge(0, 1)
	g.Succ(0) // force adjacency
	if g.Weight() <= 0 {
		t.Error("built graph must have weight")
	}
}

func TestSortDedup(t *testing.T) {
	s := []int32{3, 1, 3, 2, 1}
	sortDedup(&s)
	if len(s) != 3 || s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Errorf("sortDedup = %v", s)
	}
	one := []int32{7}
	sortDedup(&one)
	if len(one) != 1 {
		t.Errorf("singleton mangled: %v", one)
	}
}

// TestChunkedEdgesMatchNaiveModel records three full chunks and one edge more
// and holds Len, Edges, Succ and Pred to a plain edge list and sorted sets.
func TestChunkedEdgesMatchNaiveModel(t *testing.T) {
	const n, nodes = 3*chunkEdges + 1, 500
	g := New(0)
	var want [][2]int32
	succ, pred := map[int32][]int32{}, map[int32][]int32{}
	rng := rand.New(rand.NewSource(1))
	for len(want) < n {
		src, dst := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
		g.Edge(src, dst)
		if src == dst {
			continue // ignored by Edge
		}
		want = append(want, [2]int32{src, dst})
		succ[src] = append(succ[src], dst)
		pred[dst] = append(pred[dst], src)
	}
	if len(g.chunks) != 4 || g.Len() != n {
		t.Fatalf("%d chunks, Len = %d; want 4 chunks holding %d edges", len(g.chunks), g.Len(), n)
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatal("Edges() is not the recorded sequence")
	}
	set := func(s []int32) []int32 {
		slices.Sort(s)
		return slices.Compact(s)
	}
	for i := int32(0); i < nodes; i++ {
		if !slices.Equal(g.Succ(i), set(succ[i])) || !slices.Equal(g.Pred(i), set(pred[i])) {
			t.Fatalf("node %d: Succ %v Pred %v, want %v %v", i, g.Succ(i), g.Pred(i), set(succ[i]), set(pred[i]))
		}
	}
	if w := g.Weight(); w < 4*chunkEdges {
		t.Errorf("Weight = %d words, must count four chunks at capacity", w)
	}
}

// BenchmarkEdge prices recording one constraint edge, chunk allocation
// amortized in.
func BenchmarkEdge(b *testing.B) {
	b.ReportAllocs()
	g := New(0)
	for i := 0; i < b.N; i++ {
		g.Edge(int32(i&0xffff), int32(i&0xffff)+1)
	}
}
