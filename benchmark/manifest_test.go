package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const benchmarkJSONPath = "../BENCHMARK.json"

func manifest() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
		Workloads:  workloadDefs(),
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestLimits(t *testing.T) {
	m := manifest()
	if len(m.Workloads) != 5 || len(m.EndToEnd) != 6 {
		t.Fatalf("%d workloads and %d end-to-end metrics, want 5 and 6", len(m.Workloads), len(m.EndToEnd))
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	// The bounds are part of the contract with every later change: pinned
	// here so that none moves without this test being edited too.
	bounds := map[string]float64{"setup_s": 0.25, "events_per_s": 0.25, "cpu_ns_per_event": 0.25,
		"alloc_bytes_per_event": 0.02, "live_heap_mb": 0.02, "flush_ack_p50_ms": 0.25}
	for _, d := range m.EndToEnd {
		if want, ok := bounds[d.Name]; !ok || d.Bound != want {
			t.Errorf("end-to-end metric %s: bound %v, want %v", d.Name, d.Bound, want)
		}
	}
	for _, d := range m.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	if s := m.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != lower {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better; got %+v", s)
	}
}

// TestBenchmarkJSONMatchesManifest keeps the driver's copy of the
// vocabulary equal to the one the program prints; on a mismatch it prints
// the document manifest.go stands for.
func TestBenchmarkJSONMatchesManifest(t *testing.T) {
	want := manifest()
	raw, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		doc, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from manifest.go, which stands for:\n%s", doc)
	}
}
