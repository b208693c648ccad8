package main

import (
	"runtime"
	"syscall"
	"time"
)

// chunkEvents is how many events a caller hands over before it waits for
// the barrier (Engine.Sync in process, the Flush ack over the wire). Every
// workload is closed-loop at this grain.
const chunkEvents = 8192

// cpuTime returns the user+system CPU time this process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // only EFAULT/EINVAL: a bug here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is what one measured region consumed.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes allocated (runtime.MemStats.TotalAlloc delta)
	heap0     uint64 // live heap after the forced GC that preceded the region
}

// measure runs fn between a forced GC (outside the timed region, so every
// region starts from a collected heap) and the closing readings. The
// MemStats reads stop the world, so they too sit outside the timers.
func measure(fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	fn()
	c := cost{wall: time.Since(t0), cpu: cpuTime() - c0, heap0: m0.HeapAlloc}
	runtime.ReadMemStats(&m1)
	c.alloc = m1.TotalAlloc - m0.TotalAlloc
	return c
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
