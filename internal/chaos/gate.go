package chaos

import (
	"fmt"
	"sync"
	"syscall"

	"repro/internal/fault"
)

// GatePlan configures a Gate: an alternating up/down schedule used to
// flap a fleet backend or carve a partial partition between a router and
// one backend. The schedule is counted in calls, not time: window i is
// up for even i and down for odd i, and lasts between Mean{Up,Down}/2 and
// 3·Mean{Up,Down}/2 calls, drawn from the seed. Both means must be
// positive.
type GatePlan struct {
	Seed     uint64
	MeanUp   int
	MeanDown int
}

// Gate evaluates the schedule against the number of Err calls made so
// far, so one seed fails the same calls on any machine. While down, Err
// returns an injected connection-refused error; while up, nil. Err is
// cheap enough to consult on every RPC.
type Gate struct {
	plan GatePlan

	mu     sync.Mutex
	rng    *Rand
	down   bool  // the current window
	left   int   // calls left in the current window
	faults int64 // calls rejected while down
}

// NewGate returns a gate following plan.
func NewGate(plan GatePlan) *Gate {
	g := &Gate{plan: plan, rng: NewRand(plan.Seed)}
	g.left = g.window(plan.MeanUp) // window 0 is up
	return g
}

// Err counts one call: nil while the gate is up, an injected unreachable
// error while it is down.
func (g *Gate) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left == 0 {
		g.down = !g.down
		mean := g.plan.MeanUp
		if g.down {
			mean = g.plan.MeanDown
		}
		g.left = g.window(mean)
	}
	g.left--
	if g.down {
		g.faults++
		return fmt.Errorf("fault: gate: %w: %w", fault.ErrInjected, syscall.ECONNREFUSED)
	}
	return nil
}

// Faults returns how many calls were rejected while down.
func (g *Gate) Faults() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.faults
}

// window draws one window's length in calls: at least 1, in
// [mean/2, mean/2+mean).
func (g *Gate) window(mean int) int {
	return max(1, mean/2+g.rng.Intn(mean))
}
