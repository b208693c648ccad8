package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// quickRun does a --quick run in process and returns its result line.
func quickRun(t *testing.T, workload string, seed int64, traced int) result {
	t.Helper()
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run(&stdout, workload, seed, 0, 0, traced, true, filepath.Join(dir, "data"), filepath.Join(dir, "out", "doc.json")); err != nil {
		t.Fatalf("%s seed %d trace %d: %v\n%s", workload, seed, traced, err, stdout.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d: %+v", workload, seed, res)
	}
	if traced == 1 {
		raw, err := os.ReadFile(filepath.Join(dir, "out", "spans-"+workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("span file is not loadable trace-event JSON: %v (%d events)", err, len(doc.TraceEvents))
		}
	}
	return res
}

func checkNames(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	var got, want []string
	for name, v := range res.Metrics {
		got = append(got, name+" "+v.Unit)
	}
	for _, d := range defs {
		want = append(want, d.Name+" "+d.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("printed %d metrics, BENCHMARK.json names %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("printed metric %q, BENCHMARK.json has %q", got[i], want[i])
		}
	}
}

// TestQuickRunPrintsTheManifest runs every workload on tiny traces, on
// seeds 1 and 2, and requires the printed metric names and units to be
// exactly those of BENCHMARK.json: end-to-end with --trace 0, per-layer
// with --trace 1.
func TestQuickRunPrintsTheManifest(t *testing.T) {
	raw, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	for _, w := range file.Workloads {
		for _, seed := range []int64{1, 2} {
			checkNames(t, quickRun(t, w.Name, seed, 0), file.EndToEnd)
		}
	}
	for _, name := range []string{"detect-nested", "fanout15-par", "ingest-fleet-durable"} {
		checkNames(t, quickRun(t, name, 2, 1), file.PerLayer)
	}
}
