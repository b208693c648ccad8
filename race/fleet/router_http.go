package fleet

import (
	"context"
	"net/http"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/race/server"
)

// Handler returns the router's HTTP API — the raced API plus fleet admin:
//
//	POST /sessions                      open (router assigns the id, routes
//	                                    by hash, proxies to the backend)
//	GET  /sessions                      union of every backend's sessions
//	*    /sessions/{id}...              proxied to the session's backend
//	POST /ingest                        one-shot ingest on any routable backend
//	GET  /healthz                       router readiness (≥1 routable backend)
//	GET  /metrics                       the fleet_* metric registry (JSON, or
//	                                    Prometheus text)
//	POST /admin/backends/{name}/drain   drain a backend fleet-wide
//	POST /admin/sessions/{id}/migrate   ?to=backend — migrate a session
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", rt.handleOpen)
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

// pickRoutable returns the first routable backend in id's ring sequence.
func (rt *Router) pickRoutable(id string) (Backend, bool) {
	for _, name := range rt.ring.sequence(id) {
		if rt.health.routable(name) {
			return rt.backends[name], true
		}
	}
	return nil, false
}

// handleOpen assigns a fleet session id (unless the caller chose one) and
// proxies the open to the id's backend, which honors the id via ?id=.
func (rt *Router) handleOpen(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		id = rt.newID()
		q.Set("id", id)
		r.URL.RawQuery = q.Encode()
	}
	b, ok := rt.pickRoutable(id)
	if !ok {
		http.Error(w, ErrNoBackends.Error(), http.StatusServiceUnavailable)
		return
	}
	rt.metrics.sessionsRouted[b.Name()].Inc()
	b.Proxy(w, r)
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
		sessions, err := b.Sessions(ctx)
		if err != nil {
			if isUnreachable(err) {
				rt.health.markDown(name)
			}
			continue
		}
		for _, st := range sessions {
			if st.ID == id {
				return b, true
			}
		}
	}
	return fallback, fallback != nil
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
		sessions, err := rt.backends[name].Sessions(r.Context())
		if err != nil {
			if isUnreachable(err) {
				rt.health.markDown(name)
			}
			continue
		}
		byBackend[name] = sessions
		all = append(all, sessions...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	obs.WriteJSON(w, map[string]any{"sessions": all, "backends": byBackend})
}

// handleIngest routes a one-shot ingest to any routable backend (hashed on
// a throwaway id so load still spreads).
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	b, ok := rt.pickRoutable(rt.newID())
	if !ok {
		http.Error(w, ErrNoBackends.Error(), http.StatusServiceUnavailable)
		return
	}
	b.Proxy(w, r)
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
	if err := b.Drain(r.Context()); err != nil {
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
