// Package fault is a deterministic, seed-driven fault-injection layer.
//
// It provides three seams that the rest of the stack threads through its
// real code paths:
//
//   - FS, a filesystem interface (create/write/sync/rename/remove) adopted
//     by internal/store and race/server's journal writers. InjectFS layers
//     every-Nth fsync failures and an ENOSPC budget on top of a real FS;
//     CrashFS simulates a power cut at any fsync boundary by truncating
//     files back to their last-synced prefix.
//   - ConnFaults, whose Wrap puts latency, mid-frame drops and
//     bit-flipped bytes, at byte offsets, into a net.Conn's traffic.
//   - Gate, an on/off schedule counted in calls, used to flap fleet
//     backends and to carve partial partitions between a router and its
//     backends.
//
// Every injected error wraps ErrInjected, so downstream metrics can
// distinguish injected faults from organic ones with errors.Is. No fault
// decision reads the clock: all randomness comes from a splitmix64 PRNG
// seeded explicitly, and every trigger counts operations — the same seed
// and operation sequence always yields the same fault schedule.
package fault

import "errors"

// ErrInjected is the sentinel wrapped by every error this package
// manufactures. errors.Is(err, ErrInjected) distinguishes an injected
// fault from an organic one; nothing outside tests and chaos harnesses
// should ever branch on it for correctness.
var ErrInjected = errors.New("fault: injected")

// Injected reports whether err (or anything it wraps) was manufactured by
// this package.
func Injected(err error) bool { return errors.Is(err, ErrInjected) }

// Rand is a splitmix64 PRNG: tiny, fast, and fully determined by its
// seed. It is not safe for concurrent use; callers that share one across
// goroutines must lock (Gate and ConnFaults do).
type Rand struct{ s uint64 }

// NewRand returns a PRNG seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("fault: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Chance reports true with probability p.
func (r *Rand) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.Uint64()>>11)/(1<<53) < p
}
