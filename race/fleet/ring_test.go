package fleet

import (
	"fmt"
	"testing"
)

// TestRingDeterminism: the ring is a pure function of (names, vnodes) —
// two independently built rings agree on every key, which is what lets any
// router instance (or restart) route identically with no shared state.
func TestRingDeterminism(t *testing.T) {
	names := []string{"b1", "b2", "b3"}
	r1 := newRing(names, 64)
	r2 := newRing([]string{"b1", "b2", "b3"}, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("f%012x", i)
		s1, s2 := r1.sequence(key), r2.sequence(key)
		if len(s1) != len(s2) {
			t.Fatalf("key %s: sequence lengths differ", key)
		}
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Fatalf("key %s: sequences differ: %v vs %v", key, s1, s2)
			}
		}
	}
}

// TestRingSequenceCoversAllBackends: every key's failover sequence reaches
// every backend exactly once.
func TestRingSequenceCoversAllBackends(t *testing.T) {
	names := []string{"b1", "b2", "b3", "b4"}
	r := newRing(names, 32)
	for i := 0; i < 200; i++ {
		seq := r.sequence(fmt.Sprintf("key-%d", i))
		if len(seq) != len(names) {
			t.Fatalf("sequence %v misses backends (want all %d)", seq, len(names))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("sequence %v repeats %s", seq, n)
			}
			seen[n] = true
		}
	}
}

// TestRingBalance: with virtual nodes the key split stays within sane
// bounds of uniform — no backend starves or hogs.
func TestRingBalance(t *testing.T) {
	names := []string{"b1", "b2", "b3"}
	r := newRing(names, DefaultVNodes)
	counts := map[string]int{}
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.sequence(fmt.Sprintf("f%012x", i*7919))[0]]++
	}
	for _, name := range names {
		share := float64(counts[name]) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("backend %s owns %.1f%% of keys (counts %v)", name, share*100, counts)
		}
	}
}

// TestRingMinimalDisruption: removing one backend must only reassign the
// keys it owned — every other key keeps its owner. This is the property
// that makes rebalancing migrate only the dead backend's sessions.
func TestRingMinimalDisruption(t *testing.T) {
	full := newRing([]string{"b1", "b2", "b3"}, DefaultVNodes)
	without := newRing([]string{"b1", "b3"}, DefaultVNodes)
	moved, kept := 0, 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("f%012x", i*104729)
		before := full.sequence(key)[0]
		after := without.sequence(key)[0]
		if before == "b2" {
			moved++
			if after == "b2" {
				t.Fatalf("key %s still routes to removed backend", key)
			}
			continue
		}
		if before != after {
			t.Fatalf("key %s moved %s → %s though its owner survived", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split: moved=%d kept=%d", moved, kept)
	}
}

// TestSmokeIDFirstArc pins the id CI's fleet-smoke opens over HTTP after
// draining b1: on a {b1, b2} ring its first arc must be b1, or the step
// proves nothing. If the ring's hashing changes, pick another id there.
func TestSmokeIDFirstArc(t *testing.T) {
	if seq := newRing([]string{"b1", "b2"}, DefaultVNodes).sequence("fsmoke1"); seq[0] != "b1" {
		t.Fatalf("fsmoke1 routes %v; update the id in .github/workflows/ci.yml's fleet-smoke", seq)
	}
}
