package conformance

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/fto"
	"repro/internal/workload"
)

const dacapoTestScale = 40000

// TestDacapoRaceShape verifies that the generated workloads reproduce
// Table 7's shape: each analysis finds exactly the statically distinct
// races its relation is seeded with (HB ⊆ WCP ⊆ DC ⊆ WDC), at every
// optimization level.
func TestDacapoRaceShape(t *testing.T) {
	for _, p := range workload.Programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tr := p.Generate(dacapoTestScale, 1)
			for _, entry := range analysis.All() {
				col := analysis.Run(entry.NewFor(tr), tr)
				want := p.ExpectedStatic(entry.Relation.String())
				if got := col.Static(); got != want {
					t.Errorf("%s: static races = %d, want %d", entry.Name, got, want)
				}
				if want > 0 && col.Dynamic() < want {
					t.Errorf("%s: dynamic races %d < static %d", entry.Name, col.Dynamic(), want)
				}
			}
		})
	}
}

// TestDacapoCharacteristics verifies the Table 2 calibration: the
// non-same-epoch-access fraction and locks-held distribution of the
// generated traces track the paper's measurements within tolerance.
func TestDacapoCharacteristics(t *testing.T) {
	for _, p := range workload.Programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tr := p.Generate(dacapoTestScale, 1)
			a := fto.New(analysis.HB)
			analysis.Run(a, tr)
			st := a.Stats()
			gotF := float64(st.NSEAs()) / float64(tr.Len())
			if !within(gotF, p.NSEAFrac, 0.5, 0.02) {
				t.Errorf("NSEA fraction %.4f, want ≈%.4f", gotF, p.NSEAFrac)
			}
			// The injected racy sites execute some accesses under dedicated
			// locks; at unit-test scale they can dominate the tail of the
			// locks-held distribution for programs whose background almost
			// never holds locks (pmd, sunflow), so the absolute tolerance is
			// generous. racebench -table 2 reports the bench-scale values.
			for k := 1; k <= 3; k++ {
				got := float64(st.HeldAtLeast(k)) / float64(st.NSEAs())
				want := p.Held[k-1]
				if !within(got, want, 0.6, 0.25) {
					t.Errorf("held≥%d fraction %.4f, want ≈%.4f", k, got, want)
				}
			}
		})
	}
}

// within reports |got-want| within relative tolerance rel or absolute
// tolerance abs (whichever is looser).
func within(got, want, rel, abs float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	if d <= abs {
		return true
	}
	return d <= rel*want
}
