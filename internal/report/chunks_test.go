package report

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/trace"
)

// chunkRace is the i-th race the chunk tests add: locations, variables and
// writes repeat at different periods, so the derived sets grow unevenly.
func chunkRace(i int) Race {
	return Race{Index: 3 * i, Loc: trace.Loc(i % 97), Var: uint32(i % 41), Tid: trace.Tid(i % 5), Write: i%3 == 0}
}

// TestCollectorMatchesSliceAcrossChunks grows one collector past every
// chunk boundary and, at each size, holds every read against a plain-slice
// reference.
func TestCollectorMatchesSliceAcrossChunks(t *testing.T) {
	c := NewCollector()
	var ref []Race
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 10000} {
		for len(ref) < n {
			r := chunkRace(len(ref))
			c.Add(r)
			ref = append(ref, r)
		}
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			if c.Dynamic() != n || c.RaceCount() != n {
				t.Fatalf("Dynamic %d, RaceCount %d", c.Dynamic(), c.RaceCount())
			}
			for i, r := range ref {
				if got := c.RaceAt(i); got != r {
					t.Fatalf("RaceAt(%d) = %v, want %v", i, got, r)
				}
			}
			next := 0
			for i, r := range c.Each {
				if i != next || r != ref[i] {
					t.Fatalf("Each yielded (%d, %v), want (%d, %v)", i, r, next, ref[next])
				}
				next++
			}
			if next != n {
				t.Fatalf("Each yielded %d races", next)
			}
			for range c.Each { // an early break stops the walk
				break
			}
			races := c.Races()
			if !reflect.DeepEqual(races, ref) {
				t.Fatalf("Races() differs from the %d added", n)
			}
			if n > 0 {
				races[0].Var++ // a copy: the collector keeps its own
				if c.RaceAt(0) != ref[0] {
					t.Fatal("Races() shares storage with the collector")
				}
			}
			locs, vars := map[trace.Loc]bool{}, map[uint32]bool{}
			for _, r := range ref {
				locs[r.Loc], vars[r.Var] = true, true
			}
			if c.Static() != len(locs) {
				t.Errorf("Static %d, want %d", c.Static(), len(locs))
			}
			wantVars := make([]uint32, 0, len(vars))
			for v := range vars {
				wantVars = append(wantVars, v)
			}
			slices.Sort(wantVars)
			if got := c.RaceVars(); !slices.Equal(got, wantVars) {
				t.Errorf("RaceVars %v, want %v", got, wantVars)
			}
			for v := uint32(0); v <= 41; v++ {
				i := slices.IndexFunc(ref, func(r Race) bool { return r.Var == v })
				got, ok := c.FirstRace(v)
				if ok != (i >= 0) || (ok && got != ref[i]) {
					t.Errorf("FirstRace(%d) = %v, %v; reference index %d", v, got, ok, i)
				}
			}
		})
	}
}

// TestRaceAtOutOfRangePanics: a chunk's unused tail is not a race.
func TestRaceAtOutOfRangePanics(t *testing.T) {
	c := NewCollector()
	c.Add(chunkRace(0))
	for _, i := range []int{-1, 1, chunkLen - 1, chunkLen} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RaceAt(%d) of a one-race collector did not panic", i)
				}
			}()
			c.RaceAt(i)
		}()
	}
}

// TestCollectorAddCopiesNoChunk: adding 10,000 races allocates their 24
// bytes each, the slack of one chunk and the chunk directory — no chunk is
// ever copied into a larger one.
func TestCollectorAddCopiesNoChunk(t *testing.T) {
	const n = 10000
	c := NewCollector()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.Add(chunkRace(i))
	}
	runtime.ReadMemStats(&after)
	dirBytes := 2 * cap(c.races.dir) * 24 // slice headers, doubled on growth
	bound := uint64(n*24 + chunkLen*24 + dirBytes)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("adding %d races allocated %d B, bound %d B", n, got, bound)
	}
}

// BenchmarkCollectorAdd adds 10,000 races, the order of what one avrora
// ingest session collects, to a fresh collector per op.
func BenchmarkCollectorAdd(b *testing.B) {
	const n = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := 0
	for b.Loop() {
		c := NewCollector()
		for i := 0; i < n; i++ {
			c.Add(chunkRace(i))
		}
		ops++
	}
	runtime.ReadMemStats(&after)
	races := float64(ops) * n
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/races, "B/race")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/races, "allocs/race")
}
