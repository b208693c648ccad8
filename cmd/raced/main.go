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
// SIGINT/SIGTERM the server shuts down gracefully: every session finishes
// the batch it is applying, and every journal is synced and sealed before
// the process exits.
//
// Quick start against a generated trace:
//
//	tracegen -program avrora -scale 40000 -o avrora.trace
//	raced &
//	curl -s --data-binary @avrora.trace \
//	    'localhost:7117/ingest?analysis=FTO-HB,ST-WDC' | jq .
//	curl -s localhost:7117/metrics   # Prometheus text exposition
//
// Observability: GET /metrics serves the canonical raced_* metric catalog
// (plus go_* runtime self-metrics and raced_build_info) as Prometheus text
// exposition v0.0.4. -debug-addr starts an optional
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
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/race/server"
)

func main() {
	d := daemon.New("raced", ":7117", ":7118", "every session, flush, and recovery")
	var (
		maxSess = flag.Int("max-sessions", 64, "maximum concurrently open sessions")
		idle    = flag.Duration("idle", 5*time.Minute, "idle-session eviction timeout (negative disables)")
		dataDir = flag.String("data-dir", "", "durable-session directory: journal every session to a racelog and resume open sessions on restart (empty keeps sessions in memory)")
	)
	flag.Parse()
	d.Start()

	srv := server.New(server.Config{
		MaxSessions: *maxSess,
		IdleTimeout: *idle,
		DataDir:     *dataDir,
		IOTimeout:   *d.IOTimeout,
		Logger:      d.Logger,
		Tracer:      d.Tracer,
	})
	obs.RegisterRuntimeMetrics(srv.Registry())
	obs.RegisterBuildInfo(srv.Registry(), "raced")
	if *dataDir != "" {
		resumed, err := srv.Recover()
		if err != nil {
			d.Fatalf("recovering sessions from %s: %v", *dataDir, err)
		}
		d.Logger.Info("data dir opened", "dir", *dataDir, "sessions_resumed", resumed)
	}

	if sig := d.Serve(srv.ServeTCP, srv.Handler()); sig != nil {
		// Graceful: let every session's batch in flight finish, sync and
		// seal every journal before exiting, so a -data-dir restart resumes cleanly.
		d.Logger.Info("shutting down", "signal", sig.String(), "sessions", srv.ActiveSessions())
		srv.Shutdown()
	}
}
