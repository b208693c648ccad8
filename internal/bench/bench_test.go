package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestNewSample(t *testing.T) {
	s := NewSample(nil)
	if s.Mean != 0 || s.CI != 0 {
		t.Error("empty sample")
	}
	s = NewSample([]float64{4})
	if s.Mean != 4 || s.CI != 0 {
		t.Error("single sample has no CI")
	}
	s = NewSample([]float64{1, 2, 3})
	if math.Abs(s.Mean-2) > 1e-9 {
		t.Errorf("mean = %f", s.Mean)
	}
	// sd = 1, CI = t(2)·1/√3 = 4.303/1.732 ≈ 2.484.
	if math.Abs(s.CI-4.303/math.Sqrt(3)) > 1e-6 {
		t.Errorf("CI = %f", s.CI)
	}
}

func TestTCrit(t *testing.T) {
	if tCrit(0) != 0 || tCrit(1) != 12.706 || tCrit(100) != 1.96 {
		t.Error("t table wrong")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean = %f", g)
	}
	if Geomean(nil) != 0 || Geomean([]float64{1, 0}) != 0 {
		t.Error("degenerate geomeans")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (Config{}).withDefaults()
	if c.ScaleDiv != 4000 || c.Trials != 1 {
		t.Errorf("defaults = %+v", c)
	}
	sel := (Config{Programs: []string{"pmd", "nosuch"}}).SelectedPrograms()
	if len(sel) != 1 || sel[0].Name != "pmd" {
		t.Errorf("selection = %v", sel)
	}
	got := (Config{}).SelectedPrograms()
	if len(got) != 10 {
		t.Errorf("default selection has %d programs", len(got))
	}
}

func TestRunProducesCells(t *testing.T) {
	cfg := Config{ScaleDiv: 400000, Programs: []string{"pmd"}}
	results := Run(cfg, []string{"FTO-HB", "ST-DC"})
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	pr := results[0]
	for _, name := range []string{"FTO-HB", "ST-DC"} {
		c, ok := pr.Cells[name]
		if !ok {
			t.Fatalf("missing cell %s", name)
		}
		if c.Slowdown.Mean <= 0 || c.Memory.Mean < 1 {
			t.Errorf("%s: slowdown=%f memory=%f", name, c.Slowdown.Mean, c.Memory.Mean)
		}
	}
	if pr.Cells["ST-DC"].Static.Mean != float64(pr.Program.ExpectedStatic("DC")) {
		t.Errorf("ST-DC static = %f", pr.Cells["ST-DC"].Static.Mean)
	}
}

func TestRunMultiTrial(t *testing.T) {
	cfg := Config{ScaleDiv: 400000, Trials: 3, Programs: []string{"luindex"}}
	results := Run(cfg, []string{"FTO-WDC"})
	c := results[0].Cells["FTO-WDC"]
	if c.Slowdown.n != 3 {
		t.Errorf("trials = %d", c.Slowdown.n)
	}
}

func TestRenderTable1(t *testing.T) {
	out := RenderTable1()
	for _, want := range []string{"FT2", "ST-DC", "N/A", "Unopt-WDC w/G"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable2(t *testing.T) {
	out := RenderTable2(Config{ScaleDiv: 400000, Programs: []string{"xalan"}})
	if !strings.Contains(out, "xalan") || !strings.Contains(out, "%") {
		t.Errorf("table 2:\n%s", out)
	}
}

func TestRenderTable3And8(t *testing.T) {
	cfg := Config{ScaleDiv: 400000, Programs: []string{"pmd"}}
	out := RenderTable3(cfg, false)
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "geomean") {
		t.Errorf("table 3:\n%s", out)
	}
	cfg.Trials = 2
	out8 := RenderTable3(cfg, true)
	if !strings.Contains(out8, "Table 8") || !strings.Contains(out8, "±") {
		t.Errorf("table 8 missing CIs:\n%s", out8)
	}
}

func TestRenderGridTables(t *testing.T) {
	cfg := Config{ScaleDiv: 400000, Programs: []string{"sunflow"}}
	for id, out := range map[string]string{
		"4":  RenderTable4(cfg),
		"5":  RenderTable5(cfg, false),
		"6":  RenderTable6(cfg, false),
		"7":  RenderTable7(cfg, false),
		"12": RenderTable12(cfg),
	} {
		if !strings.Contains(out, "Table "+id) {
			t.Errorf("table %s header missing:\n%s", id, out)
		}
	}
	t7 := RenderTable7(cfg, false)
	// sunflow's seeded counts: HB 6, WCP 18, DC/WDC 19.
	for _, want := range []string{"6 (", "18 (", "19 ("} {
		if !strings.Contains(t7, want) {
			t.Errorf("table 7 missing %q:\n%s", want, t7)
		}
	}
}

func TestRenderFigures(t *testing.T) {
	out := RenderFigures()
	for _, want := range []string{
		"figure1", "figure3", "vindication: predictable race confirmed",
		"vindication: not confirmed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figures output missing %q", want)
		}
	}
}

func TestFactorFormatting(t *testing.T) {
	if factor(4.23) != "4.2×" || factor(26.4) != "26×" || factor(0) != "—" {
		t.Error("factor formatting")
	}
	s := Sample{Mean: 4.2, CI: 0.3}
	if factorCI(s, true) != "4.2× ± 0.3×" {
		t.Errorf("factorCI = %q", factorCI(s, true))
	}
	if factorCI(s, false) != "4.2×" {
		t.Errorf("factorCI no-ci = %q", factorCI(s, false))
	}
	if count(Sample{Mean: 13}, false) != "13" {
		t.Error("count formatting")
	}
}

func TestMeasureBaselinePositive(t *testing.T) {
	cfg := Config{ScaleDiv: 400000, Programs: []string{"batik"}}
	p := cfg.SelectedPrograms()[0]
	tr := p.Generate(cfg.ScaleDiv, 1)
	if MeasureBaseline(tr) < 0 {
		t.Error("negative duration")
	}
	if ProgramBytes(tr) <= 0 {
		t.Error("program bytes")
	}
	e, _ := analysis.ByName("FTO-HB")
	m := MeasureAnalyses([]analysis.Entry{e}, tr)[0]
	if m.Duration <= 0 || m.MetaBytes <= 0 {
		t.Errorf("measurement = %+v", m)
	}
}
