package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/obs/tracing"
	"repro/race/fleet"
	"repro/race/server"
)

// quietLog keeps the services' info-level chatter (one line per session)
// off the terminal and out of the measurement, and still shows real errors.
var quietLog = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))

// service is a booted server or fleet: where clients dial, and how to take
// it down again. stop waits for the accept loops to return.
type service struct {
	addr     string
	backends []*server.Server
	stops    []func()
}

func (s *service) stop() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// serveTCP runs serve on a fresh loopback listener and registers a stop
// that closes the listener and waits for serve to return.
func (s *service) serveTCP(serve func(net.Listener) error) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve(lis) // returns the listener-closed error stop causes
	}()
	s.stops = append(s.stops, func() { lis.Close(); <-done })
	return lis.Addr().String(), nil
}

// addBackend starts one raced-equivalent server (durable when dataDir is
// set) and returns its wire address.
func (s *service) addBackend(dataDir string, tracer *tracing.Tracer) (*server.Server, string, error) {
	srv := server.New(server.Config{DataDir: dataDir, Logger: quietLog, Tracer: tracer})
	s.backends = append(s.backends, srv)
	s.stops = append(s.stops, func() { srv.Close() })
	addr, err := s.serveTCP(srv.ServeTCP)
	return srv, addr, err
}

// bootServer is the ingest-direct shape: one server behind loopback TCP,
// in memory unless dataDir is set.
func bootServer(dataDir string, tracer *tracing.Tracer) (*service, error) {
	s := &service{}
	_, addr, err := s.addBackend(dataDir, tracer)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.addr = addr
	return s, nil
}

// bootFleet is the ingest-fleet-durable shape: a router in front of n
// journaling backends, each reached over its own wire and HTTP listeners
// exactly as racefleet reaches a remote raced.
func bootFleet(dataDir string, n int) (s *service, err error) {
	s = &service{}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	var backends []fleet.Backend
	for i := range n {
		name := fmt.Sprintf("b%d", i)
		dir := filepath.Join(dataDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		srv, tcpAddr, err := s.addBackend(dir, nil)
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		httpAddr, err := s.serveTCP(func(l net.Listener) error {
			defer hs.Close()
			return hs.Serve(l)
		})
		if err != nil {
			return nil, err
		}
		remote, err := fleet.NewRemote(name, tcpAddr, httpAddr, dir)
		if err != nil {
			return nil, err
		}
		backends = append(backends, remote)
	}
	rt, err := fleet.New(backends, fleet.Options{Logger: quietLog})
	if err != nil {
		return nil, err
	}
	s.stops = append(s.stops, rt.Close)
	if s.addr, err = s.serveTCP(rt.ServeTCP); err != nil {
		return nil, err
	}
	return s, nil
}
