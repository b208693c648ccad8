package obs

import (
	"strings"
	"testing"
)

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	snaps := reg.Snapshot()
	got := map[string]float64{}
	for _, s := range snaps {
		got[s.Name] = s.Value
	}
	if v, ok := got["go_goroutines"]; !ok || v < 1 {
		t.Errorf("go_goroutines = %v (present=%v), want >= 1", v, ok)
	}
	if v, ok := got["go_memstats_heap_alloc_bytes"]; !ok || v <= 0 {
		t.Errorf("go_memstats_heap_alloc_bytes = %v (present=%v), want > 0", v, ok)
	}
	if v, ok := got["go_memstats_gc_cpu_fraction"]; !ok || v < 0 || v > 1 {
		t.Errorf("go_memstats_gc_cpu_fraction = %v (present=%v), want in [0,1]", v, ok)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg, "raced")
	var found bool
	for _, s := range reg.Snapshot() {
		if s.Name != "raced_build_info" {
			continue
		}
		found = true
		if s.Value != 1 {
			t.Errorf("raced_build_info = %v, want 1", s.Value)
		}
		labels := map[string]string{}
		for _, l := range s.Labels {
			labels[l.Key] = l.Value
		}
		if !strings.HasPrefix(labels["goversion"], "go") {
			t.Errorf("goversion label = %q, want go*", labels["goversion"])
		}
		if labels["revision"] == "" {
			t.Error("revision label missing")
		}
	}
	if !found {
		t.Fatal("raced_build_info not registered")
	}
}
