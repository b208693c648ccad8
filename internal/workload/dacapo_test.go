package workload

import (
	"testing"

	"repro/internal/trace"
)

const testScaleDiv = 40000 // small traces for unit tests

func TestProgramsWellFormed(t *testing.T) {
	for _, p := range Programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tr := p.Generate(testScaleDiv, 1)
			if err := trace.Check(tr); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if x := trace.ExtentOf(tr.Events); x.Threads != p.Threads {
				t.Errorf("threads = %d, want %d", x.Threads, p.Threads)
			}
			if tr.Len() < 1000 {
				t.Errorf("suspiciously small trace: %d events", tr.Len())
			}
		})
	}
}

func TestProgramDeterminism(t *testing.T) {
	p, ok := ProgramByName("pmd")
	if !ok {
		t.Fatal("pmd missing")
	}
	a := p.Generate(testScaleDiv, 7)
	b := p.Generate(testScaleDiv, 7)
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestProgramScaling(t *testing.T) {
	p, _ := ProgramByName("avrora")
	small := p.Generate(80000, 1)
	big := p.Generate(20000, 1)
	if big.Len() < 2*small.Len() {
		t.Errorf("scaling broken: big=%d small=%d", big.Len(), small.Len())
	}
}

func TestProgramByName(t *testing.T) {
	if _, ok := ProgramByName("h2"); !ok {
		t.Error("h2 missing")
	}
	if _, ok := ProgramByName("nosuch"); ok {
		t.Error("phantom program")
	}
}

func TestExpectedStaticMonotone(t *testing.T) {
	for _, p := range Programs {
		hb := p.ExpectedStatic("HB")
		wcp := p.ExpectedStatic("WCP")
		dc := p.ExpectedStatic("DC")
		wdc := p.ExpectedStatic("WDC")
		if hb > wcp || wcp > dc || dc > wdc {
			t.Errorf("%s: non-monotone expected races %d %d %d %d", p.Name, hb, wcp, dc, wdc)
		}
	}
}

// TestFigureListStable guards the figure inventory.
func TestFigureListStable(t *testing.T) {
	figs := Figures()
	if len(figs) != 7 {
		t.Fatalf("expected 7 figures, got %d", len(figs))
	}
	names := map[string]bool{}
	for _, f := range figs {
		if names[f.Name] {
			t.Errorf("duplicate figure %s", f.Name)
		}
		names[f.Name] = true
		if err := trace.Check(f.Trace); err != nil {
			t.Errorf("%s not well formed: %v", f.Name, err)
		}
		if len(f.RaceBy) != 4 {
			t.Errorf("%s: RaceBy must cover all four relations", f.Name)
		}
	}
}
