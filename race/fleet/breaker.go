package fleet

import (
	"sync"
	"time"
)

// DefaultBreakerThreshold and DefaultBreakerCooldown govern the per-backend
// circuit breakers when unconfigured: three consecutive unreachable-class
// failures open a circuit, and an open circuit admits a single half-open
// trial every 2s.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second
)

const (
	bkClosed   = iota // normal operation
	bkOpen            // failing fast until cooldown expires
	bkHalfOpen        // cooldown expired; one trial call in flight
)

// breaker is one backend's circuit breaker over unreachable-class RPC
// failures. It complements the health monitor: probes bound detection to
// the probe interval, while the breaker reacts to the RPCs the router is
// actually making — and, once open, spares callers the dial timeout the
// dead backend would cost. Session-level rejections (unknown session, full,
// draining) count as proof of life and close the circuit.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    int
	fails    int // consecutive unreachable-class failures while closed
	openedAt time.Time
	probing  bool // the half-open trial is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a call may proceed. While open it returns false
// until the cooldown expires, then admits exactly one trial (half-open);
// further calls fail fast until that trial's outcome is recorded.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkClosed:
		return true
	case bkOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = bkHalfOpen
		b.probing = true
		return true
	default: // bkHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record folds one RPC outcome into the circuit and reports whether this
// outcome opened it (for the metric — reopening after a failed half-open
// trial counts too, since the circuit did admit traffic in between).
func (b *breaker) record(err error) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if err == nil || !isUnreachable(err) {
		b.state = bkClosed
		b.fails = 0
		return false
	}
	b.fails++
	if b.state == bkHalfOpen || b.fails >= b.threshold {
		b.state = bkOpen
		b.openedAt = time.Now()
		b.fails = 0
		return true
	}
	return false
}

// breakerAllow reports whether name's circuit admits a call, counting the
// refusals it short-circuits.
func (rt *Router) breakerAllow(name string) bool {
	if rt.breakers[name].allow() {
		return true
	}
	rt.metrics.breakerShorts[name].Inc()
	return false
}

// breakerRecord folds one backend RPC outcome into name's circuit.
func (rt *Router) breakerRecord(name string, err error) {
	if rt.breakers[name].record(err) {
		rt.metrics.breakerOpens[name].Inc()
		rt.logger.Warn("backend circuit opened", "backend", name, "err", err)
	}
}
