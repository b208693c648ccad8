// Command racemon is a sidecar metrics collector for a raced fleet: it
// polls the Prometheus exposition of N /metrics endpoints (raced backends
// and/or a racefleet router) on a fixed interval, aggregates fleet-wide
// throughput from counter deltas, and writes a LOAD_*.json report — the
// collector half of the ReqBench-style load harness (ROADMAP item 1).
//
//	raced -http :7117 & raced -http :7127 &
//	racemon -target localhost:7117 -target localhost:7127 \
//	    -interval 5s -cycles 12 -o LOAD_run.json
//	racemon -check LOAD_run.json        # validate schema + monotonicity
//
// Every cycle records, per target: reachability, every counter and gauge
// by canonical name, and each histogram as {count, sum, p50, p90, p99}.
// The fleet aggregate is events/second computed from the deltas of
// raced_events_analyzed_total across all targets. The summary carries
// sustained and peak throughput, merged flush-ack quantiles, and the
// scrape-error count.
//
// -check re-reads a report and fails (non-zero exit) unless the schema is
// racemon/v1 (or the raceload/v1 superset emitted by cmd/raceload), at
// least one cycle was collected, and every per-target counter is monotone
// non-decreasing across cycles — the same assertions CI's smoke jobs make.
//
// The collection and validation logic lives in internal/obs/collect so
// cmd/raceload can run the same collector inline while generating load;
// this file is only flag parsing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/collect"
)

type targetFlag []string

func (t *targetFlag) String() string { return strings.Join(*t, ",") }
func (t *targetFlag) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var targets targetFlag
	var (
		interval    = flag.Duration("interval", 5*time.Second, "polling interval")
		cycles      = flag.Int("cycles", 0, "number of polling rounds (0 runs until SIGINT/SIGTERM)")
		out         = flag.String("o", "LOAD_racemon.json", "report output path")
		check       = flag.String("check", "", "validate an existing report instead of collecting")
		metricsAddr = flag.String("metrics-addr", "", "serve racemon's own /metrics (go_* self-metrics, build info) at this address (empty disables)")
		logLevel    = flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
	)
	flag.Var(&targets, "target", "metrics endpoint as host:port or URL (repeatable)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := obs.NewLogger(os.Stderr, level).With("component", "racemon")

	if *check != "" {
		if err := collect.CheckFile(*check); err != nil {
			fatalf("%s: %v", *check, err)
		}
		logger.Info("report valid", "path", *check)
		return
	}
	if len(targets) == 0 {
		fatalf("no targets: pass at least one -target host:port")
	}
	urls := make([]string, len(targets))
	for i, t := range targets {
		urls[i] = collect.NormalizeTarget(t)
	}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		obs.RegisterBuildInfo(reg, "racemon")
		go func() {
			logger.Info("self-metrics listening", "addr", *metricsAddr)
			mux := http.NewServeMux()
			mux.Handle("GET /metrics", obs.MetricsHandler(reg))
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Warn("self-metrics server failed", "err", err)
			}
		}()
	}

	rep := &collect.Report{
		Schema:          collect.SchemaVersion,
		IntervalSeconds: interval.Seconds(),
		Targets:         urls,
	}
	col := collect.New(rep)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	col.Run(ctx, *interval, *cycles, logger)
	stop()
	col.Finish()
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(*out, append(doc, '\n'), 0o666); err != nil {
		fatalf("%v", err)
	}
	logger.Info("report written", "path", *out, "cycles", len(rep.Cycles),
		"sustained_eps", rep.Summary.SustainedEventsPerSecond)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racemon: "+format+"\n", args...)
	os.Exit(1)
}
