// Command racefleet is the stateless ingress router for a raced fleet: it
// serves the same wire protocol and HTTP API as a single raced, hashes each
// session onto one of N backends (consistent hashing, virtual nodes),
// health-checks the backends, and migrates sessions between them through
// their durable racelog journals — so adding a backend adds capacity and
// losing one costs a journal replay, not data.
//
//	raced -http :7117 -tcp :7118 -data-dir /var/lib/raced/b1 &
//	raced -http :7127 -tcp :7128 -data-dir /var/lib/raced/b2 &
//	racefleet -http :7119 -tcp :7120 \
//	    -backend b1,localhost:7118,localhost:7117,/var/lib/raced/b1 \
//	    -backend b2,localhost:7128,localhost:7127,/var/lib/raced/b2
//
// Clients now point at the router and nothing else changes:
//
//	racedetect -remote localhost:7120 -retry -analysis ST-WDC trace.bin
//	curl -s --data-binary @trace.bin 'localhost:7119/ingest?analysis=ST-WDC'
//
// Fleet administration:
//
//	curl -XPOST localhost:7119/admin/backends/b1/drain     # stop new sessions on b1
//	curl -XPOST 'localhost:7119/admin/sessions/f0a1b2c3d4e5/migrate?to=b2'
//	curl -s localhost:7119/metrics | jq .                  # routing + migration counters
//	curl -s 'localhost:7119/metrics?format=prometheus'     # text exposition
//
// Observability: GET /metrics serves the canonical fleet_* metric catalog
// (plus go_* runtime self-metrics and fleet_build_info) as JSON, or as
// Prometheus text exposition v0.0.4 with ?format=prometheus or an Accept
// header asking for text/plain. -debug-addr starts an optional
// net/http/pprof listener; -log-level sets the structured-log (log/slog)
// threshold. -trace records router spans — session, placement, flush,
// migration — joined to client and backend spans under one trace ID
// (GET /debug/traces, ?format=chrome for Perfetto); -trace-slow logs any
// trace slower than a threshold. cmd/racemon scrapes a router and its
// backends together into fleet-wide load reports.
//
// Migration requires the backend data dirs to be paths the router can read
// and write (same host or a shared filesystem): the router suspends the
// session at its source (sealing the journal), copies the session
// directory to the target, recovers it there, and the streaming client —
// told to reconnect by a Redirect frame — transparently resumes at the
// acked offset.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (-debug-addr)
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/race/fleet"
	"repro/race/server"
)

// backendFlag collects repeated -backend definitions.
type backendFlag []string

func (b *backendFlag) String() string { return strings.Join(*b, " ") }
func (b *backendFlag) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func main() {
	var backendSpecs backendFlag
	var (
		httpAddr  = flag.String("http", ":7119", "HTTP API listen address (empty disables)")
		tcpAddr   = flag.String("tcp", ":7120", "wire-protocol TCP listen address (empty disables)")
		vnodes    = flag.Int("vnodes", fleet.DefaultVNodes, "virtual nodes per backend on the hash ring")
		interval  = flag.Duration("probe-interval", fleet.DefaultProbeInterval, "health-probe interval")
		threshold = flag.Int("probe-threshold", fleet.DefaultProbeThreshold, "consecutive probe failures before a backend is down")
		ioTimeout = flag.Duration("io-timeout", 0, "cut client wire connections making no read or write progress for this long (0 disables)")
		brkThresh = flag.Int("breaker-threshold", fleet.DefaultBreakerThreshold, "consecutive unreachable failures before a backend's circuit opens")
		brkCool   = flag.Duration("breaker-cooldown", fleet.DefaultBreakerCooldown, "open-circuit cooldown before a half-open trial")
		debugAddr = flag.String("debug-addr", "", "net/http/pprof listen address (empty disables)")
		logLevel  = flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
		trace     = flag.Bool("trace", false, "record router spans for every session, placement, flush, and migration (GET /debug/traces)")
		traceSlow = flag.Duration("trace-slow", 0, "log any trace whose root span exceeds this duration, with a per-span breakdown (implies -trace)")
	)
	flag.Var(&backendSpecs, "backend", "backend as name,tcpAddr,httpAddr[,dataDir] (repeatable)")
	flag.Parse()

	if len(backendSpecs) == 0 {
		fatalf("no backends: pass at least one -backend name,tcpAddr,httpAddr[,dataDir]")
	}
	if *httpAddr == "" && *tcpAddr == "" {
		fatalf("nothing to serve: both -http and -tcp are empty")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := obs.NewLogger(os.Stderr, level).With("component", "racefleet")
	var backends []fleet.Backend
	for _, spec := range backendSpecs {
		parts := strings.Split(spec, ",")
		if len(parts) < 3 || len(parts) > 4 {
			fatalf("bad -backend %q: want name,tcpAddr,httpAddr[,dataDir]", spec)
		}
		dataDir := ""
		if len(parts) == 4 {
			dataDir = parts[3]
		}
		b, err := fleet.NewRemote(parts[0], parts[1], parts[2], dataDir)
		if err != nil {
			fatalf("%v", err)
		}
		backends = append(backends, b)
	}

	var tracer *tracing.Tracer
	if *trace || *traceSlow > 0 {
		tracer = tracing.New(tracing.Options{
			Service:       "racefleet",
			SlowThreshold: *traceSlow,
			Logger:        logger,
		})
		logger.Info("tracing enabled", "slow_threshold", traceSlow.String())
	}

	rt, err := fleet.New(backends, fleet.Options{
		VNodes:           *vnodes,
		ProbeInterval:    *interval,
		ProbeThreshold:   *threshold,
		IOTimeout:        *ioTimeout,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		Logger:           logger,
		Tracer:           tracer,
	})
	if err != nil {
		fatalf("%v", err)
	}
	obs.RegisterRuntimeMetrics(rt.Registry())
	obs.RegisterBuildInfo(rt.Registry(), "fleet")
	defer rt.Close()
	logger.Info("routing", "backends", strings.Join(rt.Backends(), ", "))

	errc := make(chan error, 3)
	if *tcpAddr != "" {
		lis, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("wire protocol listening", "addr", lis.Addr().String())
		go func() { errc <- rt.ServeTCP(lis) }()
	}
	if *httpAddr != "" {
		lis, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("HTTP API listening", "addr", lis.Addr().String())
		hs := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: server.ReadHeaderTimeout}
		go func() { errc <- hs.Serve(lis) }()
	}
	if *debugAddr != "" {
		lis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("pprof debug listening", "addr", lis.Addr().String())
		// nil handler = DefaultServeMux, where net/http/pprof registered.
		go func() { errc <- http.Serve(lis, nil) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fatalf("%v", err)
		}
	case s := <-sig:
		// The router is stateless: sessions live in backend journals, so
		// there is nothing to drain here.
		logger.Info("shutting down", "signal", s.String())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racefleet: "+format+"\n", args...)
	os.Exit(1)
}
