package fleet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/race/server"
)

// Handler returns the router's HTTP API — the raced API plus fleet admin.
// Sessions are opened and fed over the wire (ServeTCP); HTTP observes:
//
//	GET  /sessions                      union of every backend's sessions
//	*    /sessions/{id}...              proxied to the session's backend
//	                                    (GET …/races, DELETE)
//	POST /ingest                        one-shot ingest on any routable backend
//	GET  /healthz                       router readiness (≥1 routable backend)
//	GET  /metrics                       the fleet_* metric registry (Prometheus text)
//	POST /admin/backends/{name}/drain   drain a backend fleet-wide
//	POST /admin/sessions/{id}/migrate   ?to=backend — migrate a session
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /sessions", rt.handleList)
	mux.HandleFunc("/sessions/{id}", rt.handleSession)
	mux.HandleFunc("/sessions/{id}/{rest...}", rt.handleSession)
	mux.HandleFunc("POST /ingest", rt.handleIngest)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.Handle("GET /metrics", obs.MetricsHandler(rt.reg))
	mux.HandleFunc("POST /admin/backends/{name}/drain", rt.handleDrainBackend)
	mux.HandleFunc("POST /admin/sessions/{id}/migrate", rt.handleMigrate)
	mux.Handle("GET /debug/traces", tracing.Handler(rt.tracer))
	return tracing.HTTP(rt.tracer, "fleet.http", mux)
}

// replayWindow is how much of a POST /ingest body the router holds on to, so
// that the backend after the one that refused can be sent the same request:
// a small trace file fits.
const replayWindow = 64 << 10

// placeHTTP proxies a POST /ingest, which opens a throwaway session, to the
// backend place picks for id. A backend's "not here" is held back (gate) and
// the next arc offered the request, as a wire open would be — unless the
// body is longer than the window: then part of it went to the backend that
// refused, nobody else can be offered it, and the refusal is the answer.
func (rt *Router) placeHTTP(w http.ResponseWriter, r *http.Request, id string) {
	ctx, stop := context.WithCancel(r.Context())
	defer stop()
	body := bufio.NewReaderSize(r.Body, replayWindow)
	head, err := body.Peek(replayWindow)
	whole := err == io.EOF // the body ends inside the window
	if err != nil && !whole {
		http.Error(w, "fleet: reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var g *gate
	_, err = rt.place(ctx, id, func(b Backend) error {
		r.Body = io.NopCloser(body)
		if whole {
			r.Body = io.NopCloser(bytes.NewReader(head))
		}
		g = &gate{w: w, backend: b.Name(), hdr: make(http.Header)}
		b.Proxy(g, r)
		if g.held && !whole {
			stop()
		}
		return g.err()
	})
	if err != nil && (g == nil || g.held) {
		server.HTTPError(w, err)
	}
}

// gate is the ResponseWriter a placed request is proxied through. The
// backend's answer goes to the client unless it is one placement routes
// around — an error whose condition says Failover or Reconnect, or the bare
// 502 a proxy hop writes for a backend it could not reach — which is held.
type gate struct {
	w       http.ResponseWriter
	backend string
	hdr     http.Header
	status  int
	held    bool
	msg     []byte // the body of a held answer
}

func (g *gate) Header() http.Header { return g.hdr }

func (g *gate) WriteHeader(status int) {
	if g.status != 0 || status < 200 {
		return // a proxy hop's 100 Continue is not the answer
	}
	g.status = status
	if status >= 400 {
		r := server.Classify(answerErr(g.backend, status, g.hdr, "")).Recovery
		if g.held = r == server.Failover || r == server.Reconnect; g.held {
			return
		}
	}
	maps.Copy(g.w.Header(), g.hdr)
	g.w.WriteHeader(status)
}

func (g *gate) Write(p []byte) (int, error) {
	g.WriteHeader(http.StatusOK)
	if g.held {
		g.msg = append(g.msg, p...)
		return len(p), nil
	}
	return g.w.Write(p)
}

// err is what the backend's answer said, if it was a failure.
func (g *gate) err() error {
	if g.status < 400 {
		return nil
	}
	return answerErr(g.backend, g.status, g.hdr, strings.TrimSpace(string(g.msg)))
}

// answerErr is the error a backend's failing HTTP answer stands for. Its
// X-Raced-Error-Code header, when it has one, types it as the condition a
// TError frame with that code would be; a bare 502 is a proxy hop (or a
// fault gate) saying the backend could not be reached.
func answerErr(backend string, status int, hdr http.Header, body string) error {
	msg := fmt.Sprintf("fleet: backend %s: %d %s: %s", backend, status, http.StatusText(status), body)
	if code := wire.ErrCode(hdr.Get(wire.ErrorCodeHeader)); code != "" {
		return server.RemoteFault(code, msg)
	}
	if status == http.StatusBadGateway {
		return fmt.Errorf("%w: %s", ErrBackendDown, msg)
	}
	return errors.New(msg)
}

// locate finds the backend currently holding id (live or finished),
// preferring ring order; the ring owner is the fallback so a miss still
// produces the canonical 404.
func (rt *Router) locate(ctx context.Context, id string) (Backend, bool) {
	var fallback Backend
	for _, name := range rt.ring.sequence(id) {
		if !rt.health.reachable(name) {
			continue
		}
		b := rt.backends[name]
		if fallback == nil {
			fallback = b
		}
		sessions, _ := rt.sessionsOn(ctx, name)
		for _, st := range sessions {
			if st.ID == id {
				return b, true
			}
		}
	}
	return fallback, fallback != nil
}

// sessionsOn lists name's sessions; a backend that cannot be reached is
// marked down.
func (rt *Router) sessionsOn(ctx context.Context, name string) ([]server.SessionStatus, bool) {
	sessions, err := rt.backends[name].Sessions(ctx)
	return sessions, rt.called(name, err) == nil
}

// handleSession proxies any per-session route to the backend holding the
// session — which, after a migration, need not be the hash owner.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	b, ok := rt.locate(r.Context(), r.PathValue("id"))
	if !ok {
		http.Error(w, ErrNoBackends.Error(), http.StatusServiceUnavailable)
		return
	}
	b.Proxy(w, r)
}

// handleList merges every reachable backend's session listing.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	byBackend := make(map[string][]server.SessionStatus, len(rt.names))
	var all []server.SessionStatus
	for _, name := range rt.names {
		if !rt.health.reachable(name) {
			continue
		}
		if sessions, ok := rt.sessionsOn(r.Context(), name); ok {
			byBackend[name] = sessions
			all = append(all, sessions...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	obs.WriteJSON(w, map[string]any{"sessions": all, "backends": byBackend})
}

// handleIngest places a one-shot ingest like a wire open (hashed on a
// throwaway id so load still spreads).
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	rt.placeHTTP(w, r, rt.newID())
}

// handleHealthz reports router readiness: OK while at least one backend is
// routable.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := make(map[string]string, len(rt.names))
	routable := 0
	for _, name := range rt.names {
		st := rt.health.status(name)
		status[name] = st
		if st == "up" {
			routable++
		}
	}
	ok := routable > 0
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	obs.WriteJSON(w, map[string]any{"ok": ok, "routable_backends": routable, "backends": status})
}

// handleDrainBackend drains one backend and marks it unroutable
// immediately (the next probe would anyway, this just removes the window).
func (rt *Router) handleDrainBackend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	b, ok := rt.backends[name]
	if !ok {
		http.Error(w, "fleet: unknown backend "+name, http.StatusNotFound)
		return
	}
	if err := rt.called(name, b.Drain(r.Context())); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	rt.health.observe(name, ErrBackendDraining)
	obs.WriteJSON(w, map[string]any{"backend": name, "draining": true})
}

// handleMigrate moves a session to the backend named by ?to=.
func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	to := r.URL.Query().Get("to")
	if to == "" {
		http.Error(w, "fleet: migrate needs ?to=<backend>", http.StatusBadRequest)
		return
	}
	if err := rt.MigrateSession(r.Context(), id, to); err != nil {
		status := http.StatusBadGateway
		if isUnknownSession(err) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	obs.WriteJSON(w, map[string]string{"session": id, "backend": to})
}
