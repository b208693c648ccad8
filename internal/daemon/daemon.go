// Package daemon is what raced and racefleet have in common as processes:
// the listen, logging and tracing flags, the logger and tracer built from
// them, the three listeners (wire protocol, HTTP API, pprof) and the wait
// for a signal. Each main keeps its own flags, its server.New or fleet.New
// call, and what it does on the way down.
package daemon

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (-debug-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
)

// readHeaderTimeout is how long the HTTP front ends wait for a request's
// headers: a client that connects and sends nothing must not hold the
// connection forever.
const readHeaderTimeout = 10 * time.Second

// Daemon holds the shared flags and, after Start, what they configure.
type Daemon struct {
	name string

	HTTP, TCP *string
	IOTimeout *time.Duration
	Logger    *slog.Logger
	Tracer    *tracing.Tracer // nil unless -trace or -trace-slow

	debugAddr, logLevel *string
	trace               *bool
	traceSlow           *time.Duration
}

// New declares the flags every daemon takes, with its own default ports;
// traced completes the -trace usage line ("record spans for …"). name is
// the log component, the tracer's service and the prefix of fatal errors.
// Call flag.Parse, then Start.
func New(name, httpAddr, tcpAddr, traced string) *Daemon {
	return &Daemon{
		name:      name,
		HTTP:      flag.String("http", httpAddr, "HTTP API listen address (empty disables)"),
		TCP:       flag.String("tcp", tcpAddr, "wire-protocol TCP listen address (empty disables)"),
		IOTimeout: flag.Duration("io-timeout", 0, "cut client wire connections making no read or write progress for this long (0 disables)"),
		debugAddr: flag.String("debug-addr", "", "net/http/pprof listen address (empty disables)"),
		logLevel:  flag.String("log-level", "info", "log threshold: debug, info, warn, or error"),
		trace:     flag.Bool("trace", false, "record spans for "+traced+" (GET /debug/traces)"),
		traceSlow: flag.Duration("trace-slow", 0, "log any trace whose root span exceeds this duration, with a per-span breakdown (implies -trace)"),
	}
}

// Start checks the parsed flags and builds the logger and the tracer.
func (d *Daemon) Start() {
	if *d.HTTP == "" && *d.TCP == "" {
		d.Fatalf("nothing to serve: both -http and -tcp are empty")
	}
	level, err := obs.ParseLevel(*d.logLevel)
	if err != nil {
		d.Fatalf("%v", err)
	}
	d.Logger = obs.NewLogger(os.Stderr, level).With("component", d.name)
	if *d.trace || *d.traceSlow > 0 {
		d.Tracer = tracing.New(tracing.Options{
			Service:       d.name,
			SlowThreshold: *d.traceSlow,
			Logger:        d.Logger,
		})
		d.Logger.Info("tracing enabled", "slow_threshold", d.traceSlow.String())
	}
}

// Serve opens the configured listeners and blocks until a SIGINT or SIGTERM
// arrives, which it returns for the caller to shut down on. A listener that
// cannot be opened, or a front end that fails, is fatal; one that ends
// without an error returns nil.
func (d *Daemon) Serve(serveTCP func(net.Listener) error, api http.Handler) os.Signal {
	errc := make(chan error, 3) // one slot per front end: none blocks on exit
	listen := func(what, addr string, serve func(net.Listener) error) {
		if addr == "" {
			return
		}
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			d.Fatalf("%v", err)
		}
		d.Logger.Info(what+" listening", "addr", lis.Addr().String())
		go func() { errc <- serve(lis) }()
	}
	listen("wire protocol", *d.TCP, serveTCP)
	listen("HTTP API", *d.HTTP, (&http.Server{Handler: api, ReadHeaderTimeout: readHeaderTimeout}).Serve)
	// nil handler = DefaultServeMux, where net/http/pprof registered.
	listen("pprof debug", *d.debugAddr, func(lis net.Listener) error { return http.Serve(lis, nil) })

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			d.Fatalf("%v", err)
		}
		return nil
	case s := <-sig:
		return s
	}
}

// Fatalf prints the error under the daemon's name and exits 1.
func (d *Daemon) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, d.name+": "+format+"\n", args...)
	os.Exit(1)
}
