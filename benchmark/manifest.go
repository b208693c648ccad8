package main

import (
	"strings"

	"repro/race"
)

// This file is the benchmark's vocabulary: every metric name a later
// performance claim may use, as `<workload>/<metric>` (the workloads are the
// table in workloads.go). BENCHMARK.json at the repository root restates
// both for the acceptance driver; a test keeps them equal.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system pays. Counts that repeat almost
// exactly carry ISSUE 13's 2 % bounds. Timings carry 25 %, not the 10 % the
// issue asked for, and that acceptance criterion is not met: even on the
// calibrated clock (calib.go), which cuts the run-to-run spread of the
// shared 2-core sandbox by a factor of two to three, ten runs of one binary
// spread up to 16 % between their quartiles in a noisy hour (AA.json,
// noise/), and a bound below the benchmark's own spread rejects changes for
// what the neighbours did. README.md has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"events_per_s", "events/s", higher, 0.25},
	{"cpu_ns_per_event", "ns", lower, 0.25},
	{"alloc_bytes_per_event", "B", lower, 0.02},
	{"live_heap_mb", "MB", lower, 0.02},
	{"flush_ack_p50_ms", "ms", lower, 0.25},
}

// workloadDef is one set of inputs the benchmark runs, and why.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadDefs lists the workloads of workloads.go in BENCHMARK.json's form.
func workloadDefs() []workloadDef {
	var defs []workloadDef
	for _, w := range workloads() {
		defs = append(defs, workloadDef{Name: w.name, Why: w.why})
	}
	return defs
}

// cellSlug turns an analysis display name into its metric-name form:
// lower case, " w/G" → "-g" ("Unopt-WDC w/G" → "unopt-wdc-g").
func cellSlug(analysis string) string {
	return strings.ToLower(strings.ReplaceAll(analysis, " w/G", "-g"))
}

// familyCells are the cells priced on the flat and nested traces too: the
// three SmartTrack analyses and the FTO-HB baseline the paper compares
// them with.
var familyCells = []string{"ST-WDC", "ST-DC", "ST-WCP", "FTO-HB"}

// perLayer lists the metrics of single layers, reported by the traced run.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", lower, "workload.generate_ns_per_event",
		"trace.checker_ns_per_event", "trace.record_codec_ns_per_event",
		"vc.join8_ns", "vc.join64_ns")
	for _, a := range race.Detectors() {
		add("ns", lower, "cell."+cellSlug(a)+".h2_ns_per_event")
	}
	for _, a := range familyCells {
		add("ns", lower, "cell."+cellSlug(a)+".flat_ns_per_event", "cell."+cellSlug(a)+".nested_ns_per_event")
	}
	add("B", lower, "cell.st-wdc.nested_alloc_bytes_per_event")
	add("MB", lower, "cell.st-wdc.nested_live_mb")
	add("x", lower, "ratio.st-wdc_over_fto-hb.flat", "ratio.st-wdc_over_fto-hb.nested",
		"ratio.st-wdc_over_fto-hb.h2", "ratio.st-dc_over_fto-hb.nested")
	add("ns", lower, "engine.dispatch_ns_per_event", "engine.checker_delta_ns_per_event",
		"engine.metrics_delta_ns_per_event")
	add("ms", lower, "engine.close_ms")
	add("ns", lower, "pipeline.seq15_ns_per_event", "pipeline.par15_wall_ns_per_event")
	add("x", higher, "pipeline.speedup_x")
	add("share", lower, "pipeline.overhead_cpu_share")
	add("ms", lower, "vindicate.ms_per_race")
	add("ns", lower, "wire.encode_ns_per_event", "wire.decode_ns_per_event")
	add("B", lower, "wire.bytes_per_event")
	add("ns", lower, "store.append_ns_per_event", "store.read_ns_per_event")
	add("B", lower, "store.bytes_per_event")
	add("ms", lower, "store.fsync_p50_ms")
	add("count", lower, "store.fsyncs_per_mevent")
	add("ns", lower, "server.session_delta_ns_per_event", "server.journal_delta_ns_per_event",
		"server.tcp_delta_ns_per_event")
	add("ms", lower, "server.open_p50_ms", "server.close_report_p50_ms", "server.flush_ack_p99_ms")
	add("count", higher, "server.flush_ack_samples")
	add("ns", lower, "fleet.router_delta_ns_per_event")
	add("ms", lower, "fleet.router_flush_delta_ms")
	add("ns", lower, "obs.tracing_delta_ns_per_event", "runtime.record_ns_per_op")
	add("share", lower, "ledger.unattributed_share", "bench.span_overhead_share")
	return defs
}
