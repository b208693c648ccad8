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
// trace slower than a threshold.
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
	"strings"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/race/fleet"
)

// backendFlag collects repeated -backend definitions.
type backendFlag []string

func (b *backendFlag) String() string { return strings.Join(*b, " ") }
func (b *backendFlag) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func main() {
	d := daemon.New("racefleet", ":7119", ":7120", "every session, placement, flush, and migration")
	var backendSpecs backendFlag
	interval := flag.Duration("probe-interval", fleet.DefaultProbeInterval, "health-probe interval")
	flag.Var(&backendSpecs, "backend", "backend as name,tcpAddr,httpAddr[,dataDir] (repeatable)")
	flag.Parse()

	if len(backendSpecs) == 0 {
		d.Fatalf("no backends: pass at least one -backend name,tcpAddr,httpAddr[,dataDir]")
	}
	d.Start()
	var backends []fleet.Backend
	for _, spec := range backendSpecs {
		parts := strings.Split(spec, ",")
		if len(parts) == 3 {
			parts = append(parts, "") // no data dir
		}
		if len(parts) != 4 {
			d.Fatalf("bad -backend %q: want name,tcpAddr,httpAddr[,dataDir]", spec)
		}
		b, err := fleet.NewRemote(parts[0], parts[1], parts[2], parts[3])
		if err != nil {
			d.Fatalf("%v", err)
		}
		backends = append(backends, b)
	}

	rt, err := fleet.New(backends, fleet.Options{
		ProbeInterval: *interval,
		IOTimeout:     *d.IOTimeout,
		Logger:        d.Logger,
		Tracer:        d.Tracer,
	})
	if err != nil {
		d.Fatalf("%v", err)
	}
	obs.RegisterRuntimeMetrics(rt.Registry())
	obs.RegisterBuildInfo(rt.Registry(), "fleet")
	defer rt.Close()
	d.Logger.Info("routing", "backends", strings.Join(rt.Backends(), ", "))

	if sig := d.Serve(rt.ServeTCP, rt.Handler()); sig != nil {
		// The router is stateless: sessions live in backend journals, so
		// there is nothing to drain here.
		d.Logger.Info("shutting down", "signal", sig.String())
	}
}
