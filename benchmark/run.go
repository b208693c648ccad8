package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

const (
	// setupReps is how often a run sets up from scratch; setup_s and
	// live_heap_mb are the medians.
	setupReps = 3
	// minPasses is how many timed passes a run makes whatever --seconds
	// says, so that the median pass always has a dozen to stand on.
	minPasses = 12
)

// quartet is a median with the quartiles around it and the sample count.
type quartet struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func quartetOf(xs []float64) quartet {
	q1, q2, q3 := quartiles(xs)
	return quartet{Q1: q1, Median: q2, Q3: q3, N: len(xs)}
}

// runDoc is everything one end-to-end run measured.
type runDoc struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Events    int    `json:"events_per_pass"`
	Passes    int    `json:"passes"`
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
	// Metrics are the reported figures: timings on the calibrated clock
	// (calib.go). Raw are the same timings as this box's clock read them.
	Metrics map[string]float64 `json:"metrics"`
	Raw     map[string]float64 `json:"raw_timings"`
	// Spread of the samples each metric is the median of, so a noisy run is
	// visible in its own output.
	Samples map[string]quartet `json:"samples"`
	// The set-ups and timed passes themselves, in order, uncalibrated, each
	// with the reference-kernel time taken right after it.
	SetupS         []float64 `json:"setup_s"`
	SetupRefS      []float64 `json:"setup_ref_wall_s"`
	PassWallS      []float64 `json:"pass_wall_s"`
	PassCPUNs      []float64 `json:"pass_cpu_ns"`
	PassAllocBytes []float64 `json:"pass_alloc_bytes"`
	PassAckMs      []float64 `json:"pass_flush_ack_p50_ms"`
	PassRefS       []float64 `json:"pass_ref_wall_s"`
	PassRefCPUS    []float64 `json:"pass_ref_cpu_s"`
	Errors         []string  `json:"errors,omitempty"`
}

// timedPass measures one pass, takes the reference kernel's time right
// after it, then — outside both — tears the pass's service down and holds
// its sessions to the oracle.
func timedPass(p *prepared, c *passCtx, k *refKernel, fail func(int, error)) (cost, refSample) {
	var outs []sessionOut
	cost := measure(func() { outs = p.pass(c) })
	ref := k.run()
	c.finish()
	fail(p.verify(outs))
	return cost, ref
}

// scaled returns xs[i] × refKernelSeconds ÷ refs[i]: each sample as a calm
// box would have timed it.
func scaled(xs, refs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * refKernelSeconds / refs[i]
	}
	return out
}

// runWorkload is the untraced end-to-end run: setupReps set-ups from scratch
// (each ending in an untimed warm-up pass that also takes the live-heap
// reading), then the workload's fixed number of fixed-work timed passes.
// seconds only caps that: once it has gone by and minPasses are in, the run
// stops early. passes > 0 overrides the workload's count.
func runWorkload(w *scenario, seed int64, seconds float64, passes int, quick bool, dataDir string, log io.Writer) (*runDoc, error) {
	doc := &runDoc{Workload: w.name, Seed: seed, Metrics: map[string]float64{}, Raw: map[string]float64{}, Samples: map[string]quartet{}}
	fail := func(failed int, err error) {
		doc.Failed += failed
		if err != nil && len(doc.Errors) < 8 {
			doc.Errors = append(doc.Errors, err.Error())
		}
	}
	reps, least := setupReps, minPasses
	if passes <= 0 {
		passes = w.passes
	}
	if quick {
		reps, least, passes = 1, 1, 1
	}
	k := newRefKernel()

	var p *prepared
	var setups, setupRefs, lives []float64
	for range reps {
		// A set-up starts cold: the previous one's trace and oracle are
		// dropped and collected first.
		p = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = w.prepare(seed, quick, dataDir); err != nil {
			return nil, err
		}
		prep := time.Since(t0)
		var live uint64
		c := &passCtx{probe: func() { live = liveHeap() }}
		cost, ref := timedPass(p, c, k, fail)
		doc.Attempted += p.sessions()
		setups = append(setups, (prep + cost.wall).Seconds())
		setupRefs = append(setupRefs, ref.wall)
		lives = append(lives, (float64(live)-float64(cost.heap0))/(1<<20))
	}

	var walls, cpus, allocs, acks, refs, refCPUs []float64 // one entry per timed pass; acks holds each pass's median chunk
	for start := time.Now(); len(walls) < passes && (len(walls) < least || time.Since(start).Seconds() < seconds); {
		c := &passCtx{}
		cost, ref := timedPass(p, c, k, fail)
		doc.Attempted += p.sessions()
		walls = append(walls, cost.wall.Seconds())
		cpus = append(cpus, float64(cost.cpu.Nanoseconds()))
		allocs = append(allocs, float64(cost.alloc))
		acks = append(acks, median(c.acks))
		refs = append(refs, ref.wall)
		refCPUs = append(refCPUs, ref.cpu)
	}

	events := float64(p.events())
	doc.Events, doc.Passes = p.events(), len(walls)
	doc.SetupS, doc.SetupRefS = setups, setupRefs
	doc.PassWallS, doc.PassCPUNs, doc.PassAllocBytes, doc.PassAckMs, doc.PassRefS, doc.PassRefCPUS = walls, cpus, allocs, acks, refs, refCPUs
	timings := func(into map[string]float64, setups, walls, cpus, acks []float64) {
		into["setup_s"] = median(setups)
		into["events_per_s"] = events / median(walls)
		into["cpu_ns_per_event"] = median(cpus) / events
		into["flush_ack_p50_ms"] = median(acks)
	}
	timings(doc.Raw, setups, walls, cpus, acks)
	timings(doc.Metrics, scaled(setups, setupRefs), scaled(walls, refs), scaled(cpus, refCPUs), scaled(acks, refCPUs))
	doc.Metrics["alloc_bytes_per_event"] = median(allocs) / events
	doc.Metrics["live_heap_mb"] = median(lives)
	doc.Samples["setup_s"] = quartetOf(setups)
	doc.Samples["pass_wall_s"] = quartetOf(walls)
	doc.Samples["pass_cpu_ns"] = quartetOf(cpus)
	doc.Samples["pass_alloc_bytes"] = quartetOf(allocs)
	doc.Samples["live_heap_mb"] = quartetOf(lives)
	doc.Samples["pass_flush_ack_p50_ms"] = quartetOf(acks)
	doc.Samples["pass_ref_wall_s"] = quartetOf(refs)
	doc.Samples["pass_ref_cpu_s"] = quartetOf(refCPUs)

	fmt.Fprintf(log, "workload %s seed %d: %d events/pass, %d timed passes of %d chunks, ops %d attempted %d failed\n",
		w.name, seed, doc.Events, doc.Passes, (len(p.tr.Events)+chunkEvents-1)/chunkEvents*p.sessions(), doc.Attempted, doc.Failed)
	for _, m := range endToEnd {
		fmt.Fprintf(log, "  %-24s %14.6g %s", m.Name, doc.Metrics[m.Name], m.Unit)
		if raw, ok := doc.Raw[m.Name]; ok {
			fmt.Fprintf(log, "   (%.6g on this box's clock)", raw)
		}
		fmt.Fprintln(log)
	}
	fmt.Fprintf(log, "  reference kernel: median %.4f s wall, %.4f s CPU, against %.4f s calm: the box ran %.3fx and %.3fx slow\n",
		median(refs), median(refCPUs), refKernelSeconds, median(refs)/refKernelSeconds, median(refCPUs)/refKernelSeconds)
	for _, name := range []string{"setup_s", "pass_wall_s", "pass_cpu_ns", "pass_alloc_bytes", "live_heap_mb", "pass_flush_ack_p50_ms", "pass_ref_wall_s", "pass_ref_cpu_s"} {
		q := doc.Samples[name]
		fmt.Fprintf(log, "  samples %-22s q1 %.6g  median %.6g  q3 %.6g  (n=%d)\n", name, q.Q1, q.Median, q.Q3, q.N)
	}
	for _, e := range doc.Errors {
		fmt.Fprintf(log, "  FAILED: %s\n", e)
	}
	return doc, nil
}
