// Package chaos holds the fault models the tests drive the service stack
// with: InjectFS (every Nth fsync fails, writes past a budget get ENOSPC)
// and CrashFS (a power cut at an fsync boundary) over a fault.FS;
// ConnFaults, which puts latency, drops and bit flips at byte offsets into
// a net.Conn; and Gate, an up/down schedule counted in calls that flaps a
// fleet backend. Every injected error wraps fault.ErrInjected. No fault
// decision reads the clock: randomness comes from Rand, seeded explicitly,
// and every trigger counts operations, so the same seed and operation
// sequence always yields the same faults.
package chaos

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
		panic("chaos: Intn with non-positive bound")
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
