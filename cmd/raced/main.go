// Command raced is the race-detection ingestion server: a network front
// end over race/server that lets many instrumented programs stream traces
// concurrently into per-session analysis engines and query the reports.
//
//	raced                                  # HTTP on :7117, wire TCP on :7118
//	raced -http :8080 -tcp :8081
//	raced -max-sessions 256 -idle 2m
//	raced -data-dir /var/lib/raced         # durable sessions (racelog journals)
//
// With -data-dir every session journals its events to a racelog before
// analysis, flush acks mean "analyzed and durable", and a restarted raced
// rebuilds the sessions a previous process left open — clients resume at
// the acked offset (racedetect -resume, or server.Client.Resume). On
// SIGINT/SIGTERM the server shuts down gracefully: every session queue
// drains and every journal is synced and sealed before the process exits.
//
// Quick start against a generated trace:
//
//	tracegen -program avrora -scale 40000 -o avrora.trace
//	raced &
//	curl -s --data-binary @avrora.trace \
//	    'localhost:7117/ingest?analysis=FTO-HB,ST-WDC' | jq .
//	curl -s localhost:7117/metrics | jq .
//	curl -s 'localhost:7117/metrics?format=prometheus'   # text exposition
//
// Observability: GET /metrics serves the canonical raced_* metric catalog
// (plus go_* runtime self-metrics and raced_build_info) as JSON, or as
// Prometheus text exposition v0.0.4 with ?format=prometheus or an Accept
// header asking for text/plain. -debug-addr starts an optional
// net/http/pprof listener; -log-level sets the structured-log (log/slog)
// threshold. -trace records spans for every session, flush, and recovery
// (GET /debug/traces, ?format=chrome for Perfetto); -trace-slow logs any
// trace slower than a threshold with a per-span breakdown.
//
// Streaming clients use the raw-TCP wire protocol (racedetect -remote, or
// race/server.Dial from instrumented programs).
//
// In a fleet (cmd/racefleet in front of several raced instances), the
// router drives raced through its admin surface: GET /healthz is a
// readiness probe (503 while draining or with an unwritable data dir,
// plus session-pool occupancy), POST /admin/drain stops new-session
// admission, and POST /admin/sessions/{id}/suspend + .../recover are the
// two halves of journal-based session migration.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (-debug-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/race/server"
)

func main() {
	var (
		httpAddr  = flag.String("http", ":7117", "HTTP API listen address (empty disables)")
		tcpAddr   = flag.String("tcp", ":7118", "wire-protocol TCP listen address (empty disables)")
		maxSess   = flag.Int("max-sessions", 64, "maximum concurrently open sessions")
		queue     = flag.Int("queue", 32, "per-session pending-batch queue depth")
		idle      = flag.Duration("idle", 5*time.Minute, "idle-session eviction timeout (negative disables)")
		dataDir   = flag.String("data-dir", "", "durable-session directory: journal every session to a racelog and resume open sessions on restart (empty keeps sessions in memory)")
		ioTimeout = flag.Duration("io-timeout", 0, "cut wire connections making no read or write progress for this long (0 disables)")
		debugAddr = flag.String("debug-addr", "", "net/http/pprof listen address (empty disables)")
		logLevel  = flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
		trace     = flag.Bool("trace", false, "record spans for every session, flush, and recovery (GET /debug/traces)")
		traceSlow = flag.Duration("trace-slow", 0, "log any trace whose root span exceeds this duration, with a per-span breakdown (implies -trace)")
	)
	flag.Parse()
	if *httpAddr == "" && *tcpAddr == "" {
		fatalf("nothing to serve: both -http and -tcp are empty")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := obs.NewLogger(os.Stderr, level).With("component", "raced")

	var tracer *tracing.Tracer
	if *trace || *traceSlow > 0 {
		tracer = tracing.New(tracing.Options{
			Service:       "raced",
			SlowThreshold: *traceSlow,
			Logger:        logger,
		})
		logger.Info("tracing enabled", "slow_threshold", traceSlow.String())
	}

	srv := server.New(server.Config{
		MaxSessions: *maxSess,
		QueueDepth:  *queue,
		IdleTimeout: *idle,
		DataDir:     *dataDir,
		IOTimeout:   *ioTimeout,
		Logger:      logger,
		Tracer:      tracer,
	})
	obs.RegisterRuntimeMetrics(srv.Registry())
	obs.RegisterBuildInfo(srv.Registry(), "raced")
	if *dataDir != "" {
		resumed, err := srv.Recover()
		if err != nil {
			fatalf("recovering sessions from %s: %v", *dataDir, err)
		}
		logger.Info("data dir opened", "dir", *dataDir, "sessions_resumed", resumed)
	}

	errc := make(chan error, 3)
	if *tcpAddr != "" {
		lis, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("wire protocol listening", "addr", lis.Addr().String())
		go func() { errc <- srv.ServeTCP(lis) }()
	}
	if *httpAddr != "" {
		lis, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("HTTP API listening", "addr", lis.Addr().String())
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: server.ReadHeaderTimeout}
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
		// Graceful: drain every session queue and sync + seal every
		// journal before exiting, so a -data-dir restart resumes cleanly.
		logger.Info("shutting down", "signal", s.String(), "sessions", srv.ActiveSessions())
		srv.Shutdown()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "raced: "+format+"\n", args...)
	os.Exit(1)
}
