package workload

import (
	"math/rand"

	"repro/internal/trace"
)

// ChannelsConfig parameterizes the channel-heavy trace generator. It
// simulates worker goroutines communicating over Go-style channels the
// way race/sync lowers them onto core operations:
//
//   - buffered channels: one volatile slot per buffer cell, written by
//     send i (cell i mod cap) before the enqueue and read by recv i after
//     the dequeue, with sends gated on the cell's previous receive;
//   - unbuffered channels: a hand-off volatile (sender writes, receiver
//     reads) and an ack volatile (receiver writes, sender reads) per
//     rendezvous;
//   - close: a close volatile written once at close and read by every
//     receive that observes the channel closed and empty;
//
// mixed with lock critical sections and guarded/unguarded plain
// accesses. The output is well formed by construction and deterministic
// per config.
type ChannelsConfig struct {
	Seed    int64
	Threads int // worker threads; thread 0 forks, closes, and joins
	Chans   int
	MaxCap  int // channel i has capacity i mod (MaxCap+1); 0 = rendezvous
	Vars    int
	Locks   int
	Events  int // approximate event budget

	// PSend, PRecv, PLock, PClose tune the op mix; PWrite the write
	// fraction of plain accesses. Zero values take defaults.
	PSend, PRecv, PLock, PClose float64
	PWrite                      float64
}

func (c ChannelsConfig) withDefaults() ChannelsConfig {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Chans <= 0 {
		c.Chans = 3
	}
	if c.MaxCap <= 0 {
		c.MaxCap = 3
	}
	if c.Vars <= 0 {
		c.Vars = 4
	}
	if c.Locks <= 0 {
		c.Locks = 2
	}
	if c.Events <= 0 {
		c.Events = 400
	}
	if c.PSend == 0 {
		c.PSend = 0.2
	}
	if c.PRecv == 0 {
		c.PRecv = 0.2
	}
	if c.PLock == 0 {
		c.PLock = 0.15
	}
	if c.PClose == 0 {
		c.PClose = 0.002
	}
	if c.PWrite == 0 {
		c.PWrite = 0.45
	}
	return c
}

// chanState is one simulated channel's lowering state.
type chanState struct {
	capn    int    // 0 = rendezvous
	base    uint32 // first volatile slot id
	closeID uint32
	sendSeq int
	recvSeq int
	closed  bool
}

func (cs *chanState) occupancy() int { return cs.sendSeq - cs.recvSeq }

// Channels generates a channel-heavy well-formed trace. The same config
// (including Seed) always yields the same trace.
func Channels(cfg ChannelsConfig) *trace.Trace {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))

	chans := make([]*chanState, cfg.Chans)
	var vols uint32
	for i := range chans {
		cs := &chanState{capn: i % (cfg.MaxCap + 1)}
		cs.base = vols
		if cs.capn == 0 {
			vols += 2 // hand-off + ack
		} else {
			vols += uint32(cs.capn)
		}
		cs.closeID = vols
		vols++
		chans[i] = cs
	}

	nThreads := cfg.Threads + 1 // workers + the forking thread 0
	var events []trace.Event
	emit := func(t int, op trace.Op, targ uint32, loc trace.Loc) {
		events = append(events, trace.Event{T: trace.Tid(t), Op: op, Targ: targ, Loc: loc})
	}
	for t := 1; t < nThreads; t++ {
		emit(0, trace.OpFork, uint32(t), 0)
	}

	lockOwner := make([]int, cfg.Locks)
	for i := range lockOwner {
		lockOwner[i] = -1
	}
	held := make([][]uint32, nThreads)

	worker := func() int { return 1 + r.Intn(cfg.Threads) }

	for len(events) < cfg.Events {
		t := worker()
		p := r.Float64()
		switch {
		case p < cfg.PSend:
			cs := chans[r.Intn(len(chans))]
			if cs.closed {
				break
			}
			if cs.capn == 0 {
				// Rendezvous: needs a distinct partner thread; the four
				// events land in the order the shadow Chan records them.
				u := worker()
				if u == t {
					break
				}
				emit(t, trace.OpVolatileWrite, cs.base, 0)   // hand-off
				emit(u, trace.OpVolatileRead, cs.base, 0)    // receiver took it
				emit(u, trace.OpVolatileWrite, cs.base+1, 0) // ack
				emit(t, trace.OpVolatileRead, cs.base+1, 0)  // send completes
				break
			}
			if cs.occupancy() < cs.capn {
				emit(t, trace.OpVolatileWrite, cs.base+uint32(cs.sendSeq%cs.capn), 0)
				cs.sendSeq++
			}
		case p < cfg.PSend+cfg.PRecv:
			cs := chans[r.Intn(len(chans))]
			if cs.capn == 0 {
				break // rendezvous handled on the send side
			}
			if cs.occupancy() > 0 {
				emit(t, trace.OpVolatileRead, cs.base+uint32(cs.recvSeq%cs.capn), 0)
				cs.recvSeq++
			} else if cs.closed {
				emit(t, trace.OpVolatileRead, cs.closeID, 0) // closed and drained
			}
		case p < cfg.PSend+cfg.PRecv+cfg.PClose:
			cs := chans[r.Intn(len(chans))]
			if !cs.closed {
				cs.closed = true
				emit(t, trace.OpVolatileWrite, cs.closeID, 0)
			}
		case p < cfg.PSend+cfg.PRecv+cfg.PClose+cfg.PLock:
			if len(held[t]) > 0 && r.Intn(2) == 0 {
				m := held[t][len(held[t])-1]
				held[t] = held[t][:len(held[t])-1]
				lockOwner[m] = -1
				emit(t, trace.OpRelease, m, 0)
				break
			}
			if len(held[t]) < 2 {
				m := uint32(r.Intn(cfg.Locks))
				if lockOwner[m] == -1 {
					lockOwner[m] = t
					held[t] = append(held[t], m)
					emit(t, trace.OpAcquire, m, 0)
				}
			}
		default:
			x := uint32(r.Intn(cfg.Vars))
			write := r.Float64() < cfg.PWrite
			op := trace.OpRead
			if write {
				op = trace.OpWrite
			}
			emit(t, op, x, accessLoc(t, write, x))
		}
	}

	// Drain: release held locks, close every channel still open from its
	// last sender stand-in (thread 0), and let each worker observe the
	// closes — the post-close receives race/sync records.
	for t := 1; t < nThreads; t++ {
		for i := len(held[t]) - 1; i >= 0; i-- {
			emit(t, trace.OpRelease, held[t][i], 0)
		}
	}
	for _, cs := range chans {
		// Receive any values still buffered so every send is matched.
		for cs.occupancy() > 0 {
			emit(worker(), trace.OpVolatileRead, cs.base+uint32(cs.recvSeq%cs.capn), 0)
			cs.recvSeq++
		}
		if !cs.closed {
			cs.closed = true
			emit(0, trace.OpVolatileWrite, cs.closeID, 0)
		}
	}
	for t := 1; t < nThreads; t++ {
		emit(t, trace.OpVolatileRead, chans[r.Intn(len(chans))].closeID, 0)
	}
	for t := 1; t < nThreads; t++ {
		emit(0, trace.OpJoin, uint32(t), 0)
	}

	tr := &trace.Trace{
		Events:    events,
		Threads:   nThreads,
		Vars:      cfg.Vars,
		Locks:     cfg.Locks,
		Volatiles: int(vols),
	}
	return trace.MustCheck(tr)
}
