package chaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// ConnPlan configures fault-injected connections. Each direction of a
// connection suffers at most one fault, at a byte offset, so how the
// stream is cut into Read and Write calls does not move it. (One is all a
// connection survives: a drop ends it, and the frame a flip lands in fails
// its checksum.)
type ConnPlan struct {
	Seed uint64

	// LatencyMax adds a uniform random delay in [0, LatencyMax) to each
	// operation.
	LatencyMax time.Duration
	// FaultAfter places each direction's fault between FaultAfter/2 and
	// 3·FaultAfter/2 bytes past FirstByte. 0 injects none.
	FaultAfter int64
	// DropProb is the chance a fault abruptly closes the connection: the
	// bytes before its offset go through, then the stream is cut (on a
	// Write the peer sees a mid-frame cut). Otherwise the fault flips one
	// bit of the byte at its offset: on Write the flipped copy goes on the
	// wire; on Read the caller sees it flipped. Either way the peer-visible
	// frame is corrupt and must be detected by the wire checksum.
	DropProb float64
	// FirstByte keeps faults out of the first FirstByte bytes in each
	// direction, letting handshakes complete before chaos starts.
	FirstByte int64
}

// ConnFaults injects one plan's faults into every connection it wraps.
// A direction draws its fault from the plan's seeded stream when its
// first FirstByte bytes have passed, so connections that never get that
// far — a handshake refused, a resume answered busy — draw nothing, and
// which streams a seed hits does not depend on how many of them came
// first.
type ConnFaults struct {
	plan   ConnPlan
	faults atomic.Int64

	mu       sync.Mutex
	rng, lat *Rand // fault draws; latency draws
}

// NewConnFaults returns the fault source for plan.
func NewConnFaults(plan ConnPlan) *ConnFaults {
	return &ConnFaults{plan: plan, rng: NewRand(plan.Seed), lat: NewRand(^plan.Seed)}
}

// Faults returns how many faults (drops and flips) the wrapped
// connections have injected so far.
func (f *ConnFaults) Faults() int64 { return f.faults.Load() }

// Wrap wraps c with the plan's faults.
func (f *ConnFaults) Wrap(c net.Conn) *Conn {
	return &Conn{Conn: c, f: f, rd: direction{at: -1}, wr: direction{at: -1}}
}

// draw fills d's fault once its stream, now n bytes long, has passed
// FirstByte.
func (f *ConnFaults) draw(d *direction, n int64) {
	if d.drawn || n <= f.plan.FirstByte || f.plan.FaultAfter <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d.drawn = true
	d.at = f.plan.FirstByte + f.plan.FaultAfter/2 + int64(f.rng.Uint64()%uint64(f.plan.FaultAfter))
	d.drop = f.rng.Chance(f.plan.DropProb)
	d.bit = uint(f.rng.Intn(8))
}

// delay draws one operation's latency.
func (f *ConnFaults) delay() time.Duration {
	if f.plan.LatencyMax <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Duration(f.lat.Uint64() % uint64(f.plan.LatencyMax))
}

// Conn is a net.Conn with a ConnFaults' faults.
type Conn struct {
	net.Conn
	f *ConnFaults

	mu      sync.Mutex
	rd, wr  direction
	dropped bool
}

// direction is one direction's byte count and fault.
type direction struct {
	n     int64 // bytes passed
	drawn bool
	at    int64 // offset of the fault; -1 for none (or already fired)
	drop  bool
	bit   uint
}

func errDropped(op string) error {
	return fmt.Errorf("fault: conn %s: %w: dropped", op, fault.ErrInjected)
}

// dropLocked fires d's drop: from here on every operation fails. The
// caller closes the connection once it has let go of mu.
func (c *Conn) dropLocked(d *direction) {
	c.dropped, d.at = true, -1
	c.f.faults.Add(1)
}

func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	d := &c.rd
	if c.dropped {
		c.mu.Unlock()
		return 0, errDropped("read")
	}
	if d.drop && d.at == d.n {
		c.dropLocked(d)
		c.mu.Unlock()
		c.Conn.Close()
		return 0, errDropped("read")
	}
	c.mu.Unlock()

	n, err := c.Conn.Read(p)
	time.Sleep(c.f.delay())
	c.mu.Lock()
	c.f.draw(d, d.n+int64(n))
	off := d.at - d.n
	switch {
	case d.at < 0 || off >= int64(n):
	case !d.drop:
		p[off] ^= 1 << d.bit
		d.at = -1
		c.f.faults.Add(1)
	case off > 0:
		// Deliver the bytes before the drop and no more; the next Read
		// fires it. (The rest were read off the socket, but the connection
		// is as good as gone.)
		n, err = int(off), nil
	default:
		c.dropLocked(d)
		c.mu.Unlock()
		c.Conn.Close()
		return 0, errDropped("read")
	}
	d.n += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return 0, errDropped("write")
	}
	d := &c.wr
	c.f.draw(d, d.n+int64(len(p)))
	buf, off := p, d.at-d.n
	hit := d.at >= 0 && off < int64(len(p))
	if hit && d.drop {
		c.dropLocked(d)
		c.mu.Unlock()
		// Cut mid-frame: leak the prefix before the drop, then kill the conn.
		c.Conn.Write(p[:off])
		c.Conn.Close()
		return 0, errDropped("write")
	}
	if hit {
		buf = append([]byte(nil), p...)
		buf[off] ^= 1 << d.bit
		d.at = -1
		c.f.faults.Add(1)
	}
	c.mu.Unlock()

	time.Sleep(c.f.delay())
	n, err := c.Conn.Write(buf)
	c.mu.Lock()
	d.n += int64(n)
	c.mu.Unlock()
	return n, err
}
