package fault

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// ConnPlan configures a fault-injected net.Conn. All probabilities are
// evaluated per Read/Write call against the seeded PRNG.
type ConnPlan struct {
	Seed uint64

	// LatencyMax adds a uniform random delay in [0, LatencyMax] to each
	// operation.
	LatencyMax time.Duration
	// StallProb stalls an operation for StallFor before performing it —
	// long stalls exercise server-side I/O deadlines.
	StallProb float64
	StallFor  time.Duration
	// DropProb abruptly closes the connection mid-operation. On a Write
	// the peer sees a mid-frame cut.
	DropProb float64
	// FlipProb flips one random bit of the payload: on Write the flipped
	// copy goes on the wire; on Read the received bytes are flipped
	// before the caller sees them. Either way the peer-visible frame is
	// corrupt and must be detected by the wire checksum.
	FlipProb float64
	// FirstByte skips injection for the first FirstByte bytes in each
	// direction, letting handshakes complete before chaos starts.
	FirstByte int64
}

// ConnStats counts faults a set of wrapped connections injected.
type ConnStats struct {
	mu     sync.Mutex
	counts map[string]int64
}

// NewConnStats returns an empty counter set shared across wrapped conns.
func NewConnStats() *ConnStats { return &ConnStats{counts: make(map[string]int64)} }

func (s *ConnStats) hit(class string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counts[class]++
	s.mu.Unlock()
}

// Counts returns a copy of the per-class counters ("latency", "stall",
// "drop", "flip").
func (s *ConnStats) Counts() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Conn wraps a net.Conn with the faults described by a ConnPlan.
type Conn struct {
	net.Conn
	plan  ConnPlan
	stats *ConnStats

	mu       sync.Mutex
	rng      *Rand
	rdN, wrN int64
	dropped  bool
}

// WrapConn wraps c. stats may be nil.
func WrapConn(c net.Conn, plan ConnPlan, stats *ConnStats) *Conn {
	return &Conn{Conn: c, plan: plan, stats: stats, rng: NewRand(plan.Seed)}
}

type connDecision struct {
	delay time.Duration
	drop  bool
	flip  int // bit index to flip within the buffer, -1 for none
}

func (c *Conn) decide(seen int64, buf int) (connDecision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped {
		return connDecision{}, fmt.Errorf("fault: conn: %w: dropped", ErrInjected)
	}
	d := connDecision{flip: -1}
	if seen < c.plan.FirstByte {
		return d, nil
	}
	if c.plan.LatencyMax > 0 {
		d.delay = time.Duration(c.rng.Uint64() % uint64(c.plan.LatencyMax))
		c.stats.hit("latency")
	}
	if c.plan.StallProb > 0 && c.rng.Chance(c.plan.StallProb) {
		d.delay += c.plan.StallFor
		c.stats.hit("stall")
	}
	if c.plan.DropProb > 0 && c.rng.Chance(c.plan.DropProb) {
		d.drop = true
		c.dropped = true
		c.stats.hit("drop")
		return d, nil
	}
	if buf > 0 && c.plan.FlipProb > 0 && c.rng.Chance(c.plan.FlipProb) {
		d.flip = c.rng.Intn(buf * 8)
		c.stats.hit("flip")
	}
	return d, nil
}

func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	seen := c.rdN
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.rdN += int64(n)
		c.mu.Unlock()
		d, derr := c.decide(seen, n)
		if derr != nil {
			return 0, derr
		}
		if d.delay > 0 {
			time.Sleep(d.delay)
		}
		if d.drop {
			c.Conn.Close()
			return 0, fmt.Errorf("fault: conn read: %w: dropped", ErrInjected)
		}
		if d.flip >= 0 {
			p[d.flip/8] ^= 1 << (d.flip % 8)
		}
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	seen := c.wrN
	c.mu.Unlock()
	d, derr := c.decide(seen, len(p))
	if derr != nil {
		return 0, derr
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.drop {
		// Cut mid-frame: leak a prefix, then kill the conn.
		if len(p) > 1 {
			c.Conn.Write(p[:len(p)/2])
		}
		c.Conn.Close()
		return 0, fmt.Errorf("fault: conn write: %w: dropped", ErrInjected)
	}
	buf := p
	if d.flip >= 0 {
		buf = append([]byte(nil), p...)
		buf[d.flip/8] ^= 1 << (d.flip % 8)
	}
	n, err := c.Conn.Write(buf)
	c.mu.Lock()
	c.wrN += int64(n)
	c.mu.Unlock()
	return n, err
}
