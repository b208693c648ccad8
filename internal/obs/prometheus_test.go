package obs

import (
	"math"
	"strings"
	"testing"
)

// buildRegistry populates a registry with one of everything.
func buildRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("svc_events_total", "Events ingested.")
	c.Add(1234)
	for _, shard := range []string{"0", "1"} {
		sc := r.Counter("svc_shard_events_total", "Per-shard events.", L("shard", shard))
		sc.Add(100)
	}
	r.GaugeFunc("svc_sessions_active", "Open sessions.", func() float64 { return 7 })
	r.GaugeFunc("svc_up", "Always one.", func() float64 { return 1 })
	h := r.Histogram("svc_flush_seconds", "Flush latency.", []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 0.5, 3} {
		h.Observe(v)
	}
	return r
}

func TestWriteTextShape(t *testing.T) {
	var b strings.Builder
	if err := WriteText(&b, buildRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE svc_events_total counter",
		"svc_events_total 1234",
		`svc_shard_events_total{shard="0"} 100`,
		`svc_shard_events_total{shard="1"} 100`,
		"# TYPE svc_sessions_active gauge",
		"svc_sessions_active 7",
		"# TYPE svc_flush_seconds histogram",
		`svc_flush_seconds_bucket{le="0.001"} 1`,
		`svc_flush_seconds_bucket{le="0.01"} 3`,
		`svc_flush_seconds_bucket{le="0.1"} 4`,
		`svc_flush_seconds_bucket{le="1"} 5`,
		`svc_flush_seconds_bucket{le="+Inf"} 6`,
		"svc_flush_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}

	// A family's TYPE header must appear exactly once and its samples
	// must be contiguous (no other family's samples interleaved).
	if strings.Count(out, "# TYPE svc_shard_events_total") != 1 {
		t.Errorf("labelled family declared more than once:\n%s", out)
	}
	first := strings.Index(out, "svc_shard_events_total{")
	last := strings.LastIndex(out, "svc_shard_events_total{")
	between := out[first:last]
	if strings.Contains(between, "svc_sessions_active") {
		t.Errorf("family samples not contiguous:\n%s", out)
	}
}

// TestExpositionRoundTrip: WriteText → ParseText reproduces every
// value, and the histogram reconstructs bucket-for-bucket.
func TestExpositionRoundTrip(t *testing.T) {
	reg := buildRegistry()
	snaps := reg.Snapshot()
	var b strings.Builder
	if err := WriteText(&b, snaps); err != nil {
		t.Fatal(err)
	}

	fams, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText on own output: %v", err)
	}
	byName := map[string]*Family{}
	for i := range fams {
		byName[fams[i].Name] = &fams[i]
	}

	f := byName["svc_events_total"]
	if f == nil || f.Type != "counter" || f.Help != "Events ingested." {
		t.Fatalf("counter family wrong: %+v", f)
	}
	if len(f.Samples) != 1 || f.Samples[0].Value != 1234 {
		t.Fatalf("counter samples wrong: %+v", f.Samples)
	}

	sh := byName["svc_shard_events_total"]
	if sh == nil || len(sh.Samples) != 2 {
		t.Fatalf("shard family wrong: %+v", sh)
	}
	for i, s := range sh.Samples {
		if s.Label("shard") == "" || s.Value != 100 {
			t.Errorf("shard sample %d wrong: %+v", i, s)
		}
	}

	hf := byName["svc_flush_seconds"]
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("histogram family wrong: %+v", hf)
	}
	hv := hf.Histogram()
	if hv == nil {
		t.Fatal("histogram reconstruction returned nil")
	}
	orig := snaps[len(snaps)-1].Hist
	if hv.Count != orig.Count || math.Abs(hv.Sum-orig.Sum) > 1e-9 {
		t.Errorf("round-trip count/sum = %d/%v, want %d/%v", hv.Count, hv.Sum, orig.Count, orig.Sum)
	}
	if len(hv.Counts) != len(orig.Counts) {
		t.Fatalf("round-trip buckets = %v, want %v", hv.Counts, orig.Counts)
	}
	for i := range hv.Counts {
		if hv.Counts[i] != orig.Counts[i] {
			t.Errorf("bucket %d = %d, want %d", i, hv.Counts[i], orig.Counts[i])
		}
	}
	if q := hv.Quantile(0.5); q <= 0 {
		t.Errorf("round-trip quantile = %v", q)
	}
}

func TestParseLabelEscapes(t *testing.T) {
	in := `m{path="a\"b\\c",n="x\ny"} 3.5 1712345678
# TYPE other gauge
other 2e3
`
	fams, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var m *Family
	for i := range fams {
		if fams[i].Name == "m" {
			m = &fams[i]
		}
	}
	if m == nil || len(m.Samples) != 1 {
		t.Fatalf("families: %+v", fams)
	}
	s := m.Samples[0]
	if s.Label("path") != `a"b\c` || s.Label("n") != "x\ny" || s.Value != 3.5 {
		t.Errorf("escape parse wrong: %+v", s)
	}
}

func TestParseSpecialFloats(t *testing.T) {
	in := "a 0\nb{le=\"+Inf\"} 5\nc NaN\nd -Inf\n"
	fams, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 4 {
		t.Fatalf("got %d families", len(fams))
	}
	if !math.IsNaN(fams[2].Samples[0].Value) || !math.IsInf(fams[3].Samples[0].Value, -1) {
		t.Errorf("special floats wrong: %+v", fams)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"name_only\n",
		"m{unterminated 1\n",
		`m{l="v"} notanumber` + "\n",
	} {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("ParseText(%q) accepted garbage", in)
		}
	}
}
