package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/race"
)

// Handler returns the server's HTTP API:
//
//	POST   /sessions                 open a session (body: SessionConfig JSON)
//	GET    /sessions                 list live session ids
//	POST   /sessions/{id}/events     ingest raw 12-byte event records (body)
//	POST   /sessions/{id}/flush      sync barrier; reports ingestion errors
//	POST   /sessions/{id}/close      end the stream; returns the report JSON
//	GET    /sessions/{id}/races      report JSON (live snapshot while open)
//	DELETE /sessions/{id}            abort the session, discarding the report
//	POST   /ingest                   one-shot: body is a binary trace file;
//	                                 runs a session end to end, returns the
//	                                 report (query: analysis=A,B&vindicate=1)
//	GET    /healthz                  readiness: 503 while draining or with an
//	                                 unwritable data dir; reports occupancy
//	GET    /metrics                  the metric registry (JSON, or Prometheus text)
//
// Fleet administration (the router's control surface):
//
//	POST   /admin/drain                    stop admitting new sessions (healthz
//	                                       goes 503; live sessions unaffected)
//	POST   /admin/sessions/{id}/suspend    seal a live durable session's journal
//	                                       and free its slot (migration source)
//	POST   /admin/sessions/{id}/recover    load a session directory that appeared
//	                                       in the data dir (migration target)
//
// Event bodies reuse the trace codec's record encoding, so POST
// /sessions/{id}/events accepts exactly the bytes an Events wire frame
// carries, and POST /ingest accepts an unmodified tracegen output file.
// POST /sessions?id=X opens the session under the caller-chosen id X (the
// router's consistent-hash placement key) instead of a server-assigned one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.handleOpen)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("POST /sessions/{id}/events", s.driven(handleEvents))
	mux.HandleFunc("POST /sessions/{id}/flush", s.driven(handleFlush))
	mux.HandleFunc("POST /sessions/{id}/close", s.driven(handleClose))
	mux.HandleFunc("GET /sessions/{id}/races", s.handleRaces)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleAbort)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.Registry()))
	mux.HandleFunc("POST /admin/drain", s.handleDrain)
	mux.HandleFunc("POST /admin/sessions/{id}/suspend", s.handleSuspend)
	mux.HandleFunc("POST /admin/sessions/{id}/recover", s.handleRecover)
	mux.Handle("GET /debug/traces", tracing.Handler(s.cfg.Tracer))
	return tracing.HTTP(s.cfg.Tracer, "raced.http", mux)
}

// HTTPError answers with the status of err's row in conditions, and with
// the row's wire code in ErrorCodeHeader — the HTTP analogue of a typed
// TError frame, so the fleet router classifies admin-API failures the same
// way wire clients classify frames (and answers its own the same way).
func HTTPError(w http.ResponseWriter, err error) {
	c := Classify(err)
	w.Header().Set(wire.ErrorCodeHeader, string(c.WireCode()))
	http.Error(w, err.Error(), c.Status)
}

// driven makes a mutating request the session's driver for its duration,
// through the door a wire connection comes in by (Attach): one session has
// exactly one feeder at a time, whichever front end it came in through. A
// wire connection mid-session (or a concurrent HTTP upload) answers 409 — a
// check-then-act test would leave the whole remainder of an in-flight upload
// free to interleave with a wire resume (DELETE stays exempt: operators may
// abort anything).
func (s *Server) driven(h func(http.ResponseWriter, *http.Request, Attachment)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		att, _, err := s.Attach(r.Context(), &HelloPayload{Resume: r.PathValue("id")})
		if err != nil {
			HTTPError(w, err)
			return
		}
		defer att.release()
		h(w, r, att)
	}
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			http.Error(w, fmt.Sprintf("bad session config: %v", err), http.StatusBadRequest)
			return
		}
	}
	sess, err := s.open(r.URL.Query().Get("id"), cfg)
	if err != nil {
		openError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	obs.WriteJSON(w, map[string]string{"session": sess.ID})
}

// openError maps OpenSession failures: a typed condition (full, draining,
// shut down, id taken) keeps its row's status; anything untyped (unknown
// analysis name, N/A Table 1 cell, invalid id) is the caller's
// configuration — a 400, not a server fault.
func openError(w http.ResponseWriter, err error) {
	if Classify(err).Code == wire.CodeInternal {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	HTTPError(w, err)
}

// handleList serves the session inventory: every live session and every
// retained finished one, with state, event count, and races so far.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, map[string]any{"sessions": s.Sessions()})
}

// handleEvents streams raw event records from the request body into the
// session. The body length need not be known: chunked uploads work, so a
// live client can keep one request open.
func handleEvents(w http.ResponseWriter, r *http.Request, att Attachment) {
	br := bufio.NewReaderSize(r.Body, 1<<16)
	fed, readErr, err := att.ingest(func(dst []race.Event) (int, error) {
		n, bad, err := trace.ReadRecords(br, dst, nil)
		switch {
		case bad >= 0:
			err = trace.BadRecord(bad, dst[bad].Op)
		case err != nil && err != io.EOF:
			err = fmt.Errorf("truncated event record: %w", err)
		}
		return n, err
	})
	if readErr != nil {
		http.Error(w, readErr.Error(), http.StatusBadRequest)
		return
	}
	serveFed(w, fed, err)
}

func handleFlush(w http.ResponseWriter, r *http.Request, att Attachment) {
	fed, err := att.Flush(tracing.FromContext(r.Context()))
	serveFed(w, fed, err)
}

func handleClose(w http.ResponseWriter, _ *http.Request, att Attachment) {
	doc, err := att.Close()
	serveReport(w, doc, err)
}

// serveFed answers with the event offset an operation acknowledges, or with
// the error it ended in.
func serveFed(w http.ResponseWriter, fed uint64, err error) {
	if err != nil {
		HTTPError(w, err)
		return
	}
	obs.WriteJSON(w, map[string]uint64{"fed": fed})
}

// handleRaces serves races for both live and finished sessions: while a
// session is streaming it returns a snapshot of the races delivered so
// far; once the session has closed it returns the canonical report JSON
// (retained for the last maxFinished terminated sessions). A session that
// ended without a report (aborted, evicted, poisoned) reports its
// terminal error instead.
func (s *Server) handleRaces(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sess, ok := s.Session(id); ok {
		obs.WriteJSON(w, map[string]any{
			"session": sess.ID,
			"fed":     sess.Fed(),
			"races":   sess.Races(),
		})
		return
	}
	sess, ok := s.Finished(id)
	if !ok {
		HTTPError(w, fmt.Errorf("%w: %s", ErrUnknown, id))
		return
	}
	var doc []byte
	rep, err := sess.Close() // idempotent: returns the recorded outcome
	if err == nil {
		doc, err = json.Marshal(rep)
	}
	serveReport(w, doc, err)
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		HTTPError(w, fmt.Errorf("%w: %s", ErrUnknown, r.PathValue("id")))
		return
	}
	sess.abort(errors.New("server: session aborted by client"))
	w.WriteHeader(http.StatusNoContent)
}

// handleIngest is the one-shot batch path: the body is a complete binary
// trace file (tracegen output), analyzed in a throwaway session whose
// report is the response.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if v := r.URL.Query().Get("vindicate"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad vindicate value %q: %v", v, err), http.StatusBadRequest)
			return
		}
		cfg.Vindicate = on
	}
	if names := r.URL.Query().Get("analysis"); names != "" {
		cfg.Analyses = strings.Split(names, ",")
	}
	// The ingest session is a throwaway — the report is returned in this
	// very response — so skip durability: journaling a session that can
	// never be resumed would only double the I/O and grow the data dir
	// without bound. Unjournaled, a vindicating ingest's engine retains
	// the stream in memory (newEngineSink).
	sess, err := s.openSession("", cfg, false)
	if err != nil {
		openError(w, err)
		return
	}
	// The whole one-shot run parents under this request's span.
	att, err := sess.claim(r.Context())
	if err != nil {
		sess.abort(err) // unreachable: nobody else knows the id
		HTTPError(w, err)
		return
	}
	dec := trace.NewDecoder(r.Body)
	_, readErr, err := att.ingest(func(dst []race.Event) (int, error) {
		for n := range dst {
			ev, err := dec.Next()
			if err != nil {
				return n, err
			}
			dst[n] = ev
		}
		return len(dst), nil
	})
	if readErr != nil {
		att.Drop(readErr)
		http.Error(w, readErr.Error(), http.StatusBadRequest)
		return
	}
	if err != nil {
		att.Drop(err)
		HTTPError(w, err)
		return
	}
	doc, err := att.Close()
	serveReport(w, doc, err)
}

// serveReport answers with a report's canonical JSON form — raced's half of
// the byte-identical remote == in-process conformance contract — or with the
// error the session ended in.
func serveReport(w http.ResponseWriter, doc []byte, err error) {
	if err != nil {
		HTTPError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// healthzStatus is the GET /healthz document — readiness, not just
// liveness: a router must stop routing new sessions to a backend that is
// draining, full, or unable to persist journals, and the 503/200 split is
// what its probe keys on.
type healthzStatus struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining,omitempty"`
	// ActiveSessions / MaxSessions is the pool occupancy a router can use
	// for load-aware decisions; Full means new opens would be rejected.
	ActiveSessions int  `json:"active_sessions"`
	MaxSessions    int  `json:"max_sessions"`
	Full           bool `json:"full,omitempty"`
	// DataDirWritable is present only on durable servers: a backend whose
	// disk stopped accepting writes cannot honor flush-ack durability and
	// must leave the routable set even though the process is alive.
	DataDirWritable *bool `json:"data_dir_writable,omitempty"`
	// Degraded means at least one session has failed on a disk fault since
	// start (its journal quarantined, its error sticky). Degraded alone
	// does NOT fail the probe: the fault policy isolates the damage and the
	// server keeps serving other tenants — a router should keep it routable
	// unless the data dir itself stopped accepting writes.
	Degraded            bool   `json:"degraded,omitempty"`
	QuarantinedSessions uint64 `json:"quarantined_sessions,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := healthzStatus{
		OK:                  true,
		Draining:            s.Draining(),
		ActiveSessions:      s.ActiveSessions(),
		MaxSessions:         s.cfg.MaxSessions,
		Degraded:            s.Degraded(),
		QuarantinedSessions: s.QuarantinedSessions(),
	}
	st.Full = st.ActiveSessions >= st.MaxSessions
	if s.cfg.DataDir != "" {
		writable := dataDirWritable(s.fsys(), s.cfg.DataDir)
		st.DataDirWritable = &writable
		if !writable {
			st.OK = false
		}
	}
	if st.Draining {
		st.OK = false
	}
	if !st.OK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	obs.WriteJSON(w, st)
}

// dataDirWritable probes the data dir with a create+remove round trip on
// the server's filesystem — under fault injection the probe sees the same
// failing disk the journals do.
func dataDirWritable(fsys fault.FS, dir string) bool {
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return false
	}
	probe := filepath.Join(dir, ".healthz-probe")
	f, err := fsys.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return false
	}
	f.Close()
	return fsys.Remove(probe) == nil
}

// handleDrain takes the server out of the admission pool: new sessions are
// refused (ErrDraining / healthz 503) while live sessions keep streaming.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	s.Drain()
	obs.WriteJSON(w, map[string]any{"draining": true, "active_sessions": s.ActiveSessions()})
}

// handleSuspend seals one live durable session for migration and returns
// its journaled offset.
func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	fed, err := s.SuspendSession(r.PathValue("id"))
	serveFed(w, fed, err)
}

// handleRecover loads a session directory that appeared under the data dir
// (a migration's copied journal) into this server.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.RecoverSession(r.Context(), id)
	offset := uint64(0)
	if sess, ok := s.Session(id); ok {
		offset = sess.Enqueued()
	}
	serveFed(w, offset, err)
}
