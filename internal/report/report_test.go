package report

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

func TestCountsAndDedup(t *testing.T) {
	c := NewCollector()
	c.Add(Race{Loc: 5, Var: 1, Tid: 0, Index: 10})
	c.Add(Race{Loc: 5, Var: 1, Tid: 1, Index: 20})
	c.Add(Race{Loc: 9, Var: 2, Tid: 0, Index: 30, Write: true})
	if c.Dynamic() != 3 {
		t.Errorf("dynamic = %d", c.Dynamic())
	}
	if c.Static() != 2 {
		t.Errorf("static = %d", c.Static())
	}
	if got := c.RaceVars(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("RaceVars = %v", got)
	}
	if got := c.StaticLocs(); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("StaticLocs = %v", got)
	}
}

func TestFirstRacePerVariable(t *testing.T) {
	c := NewCollector()
	c.Add(Race{Loc: 1, Var: 7, Index: 3})
	c.Add(Race{Loc: 2, Var: 7, Index: 9})
	r, ok := c.FirstRace(7)
	if !ok || r.Index != 3 {
		t.Errorf("FirstRace = %v, %v", r, ok)
	}
	if _, ok := c.FirstRace(99); ok {
		t.Error("phantom first race")
	}
}

func TestRacesOrderPreserved(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		c.Add(Race{Loc: trace.Loc(i), Var: uint32(i), Index: i})
	}
	for i, r := range c.Races() {
		if r.Index != i {
			t.Fatalf("order not preserved at %d: %v", i, r)
		}
	}
}

func TestRaceString(t *testing.T) {
	r := Race{Loc: 4, Var: 2, Tid: 1, Write: true, Index: 8}
	s := r.String()
	for _, want := range []string{"x2", "loc4", "T1", "wr", "event 8"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	rd := Race{Loc: 1, Var: 0, Tid: 0}
	if !strings.Contains(rd.String(), "rd") {
		t.Error("read race string")
	}
}

func TestUnknownTidSentinel(t *testing.T) {
	if UnknownTid != 0xFFFF {
		t.Error("UnknownTid changed; update race diagnostics")
	}
}

// TestDerivedSetsFollowAdds: the lazily derived sets are extended, not
// frozen, when races arrive between reads — and the first race on a variable
// stays the first.
func TestDerivedSetsFollowAdds(t *testing.T) {
	c := NewCollector()
	if c.Static() != 0 || len(c.RaceVars()) != 0 || len(c.StaticLocs()) != 0 {
		t.Fatal("empty collector has derived races")
	}
	c.Add(Race{Loc: 3, Var: 4, Index: 1})
	if c.Static() != 1 {
		t.Fatalf("static = %d after one race", c.Static())
	}
	c.Add(Race{Loc: 3, Var: 4, Index: 2})
	c.Add(Race{Loc: 8, Var: 5, Index: 3})
	if c.Static() != 2 {
		t.Errorf("static = %d after reads interleaved with adds", c.Static())
	}
	if got := c.RaceVars(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("RaceVars = %v", got)
	}
	if r, ok := c.FirstRace(4); !ok || r.Index != 1 {
		t.Errorf("FirstRace(4) = %v, %v", r, ok)
	}
}

// TestDerivedSetsConcurrentReaders: a finished collector is read by many
// goroutines at once (raced serves one report to concurrent requests); the
// first readers race to build the sets. Run under -race.
func TestDerivedSetsConcurrentReaders(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Add(Race{Loc: trace.Loc(i % 7), Var: uint32(i % 5), Index: i})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ja := AnalysisJSON("X", c)
			if ja.Static != 7 || len(ja.RaceVars) != 5 || len(c.StaticLocs()) != 7 {
				t.Errorf("static %d, vars %d", ja.Static, len(ja.RaceVars))
			}
			if r, ok := c.FirstRace(3); !ok || r.Index != 3 {
				t.Errorf("FirstRace(3) = %v, %v", r, ok)
			}
		}()
	}
	wg.Wait()
}
