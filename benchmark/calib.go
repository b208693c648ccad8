package main

import (
	"runtime"
	"syscall"
	"time"
)

// The reference kernel is the benchmark's clock correction. The sandbox's
// neighbours slow this process by 10–40 % for minutes at a time (memory and
// cache contention: CPU time inflates with wall time, steal stays near 0),
// so the same binary reads differently from one run to the next by more
// than any bound worth gating on. A fixed piece of work that is no part of
// the program under test — a hashed read-modify-write walk over an 8 MB
// table fed from a 4 MB stream, branchy and cache-missing like the analyses
// — is therefore run right after every timed pass. How much slower than
// refKernelSeconds it ran is how much slower the box was for that pass, and
// the pass's timings are divided by it (noise/ holds the series that show
// what this removes and what it leaves).
//
// The kernel is read on two clocks, because the box is slow in two ways.
// Contention for caches and memory inflates wall and CPU time alike. A
// hypervisor that takes the virtual CPU away inflates wall time only: CPU
// time, and the median of many millisecond-long waits, do not see it. So
// wall-clock figures (events_per_s, setup_s) are corrected by the kernel's
// wall time, and CPU-like figures (cpu_ns_per_event, flush_ack_p50_ms) by
// the CPU time of the thread that ran it.

// refKernelSeconds is about what the kernel takes on the builder's 2-core
// sandbox in a calm stretch, so there calibrated and raw timings are about
// equal; on another machine they differ by one constant factor, which
// cancels in every comparison of two commits.
const refKernelSeconds = 0.1

const (
	refKernelSteps  = 8_000_000
	refKernelTable  = 1 << 20 // uint64 slots
	refKernelStream = 1 << 20 // uint32 keys
)

type refKernel struct {
	stream []uint32
	table  []uint64
	sink   uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{stream: make([]uint32, refKernelStream), table: make([]uint64, refKernelTable)}
	r := uint64(12345)
	for i := range k.stream {
		r = r*6364136223846793005 + 1442695040888963407
		k.stream[i] = uint32(r >> 32)
	}
	return k
}

// refSample is one run of the kernel, in seconds on both clocks.
type refSample struct{ wall, cpu float64 }

// threadCPU returns the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic("getrusage: " + err.Error()) // only EFAULT/EINVAL: a bug here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run does the kernel's fixed work once, from a cleared table, and returns
// how long it took.
func (k *refKernel) run() refSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	clear(k.table)
	c0, t0 := threadCPU(), time.Now()
	var s uint64
	for i := 0; i < refKernelSteps; i++ {
		v := k.stream[i%refKernelStream]
		h := (v * 2654435761) % refKernelTable
		t := k.table[h]
		if t&1 == 0 {
			k.table[h] = t + uint64(v) | 1
		} else {
			k.table[h] = t>>1 + 3
			s += t
		}
	}
	k.sink += s
	return refSample{wall: time.Since(t0).Seconds(), cpu: (threadCPU() - c0).Seconds()}
}
