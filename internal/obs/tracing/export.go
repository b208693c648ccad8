// Span export: the /debug/traces HTTP handler serving recent spans as
// JSON, and a Chrome trace_event writer whose output loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
package tracing

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/obs"
)

// jsonSpan is the /debug/traces JSON shape of one completed span.
type jsonSpan struct {
	Trace   string  `json:"trace"`
	Span    string  `json:"span"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Service string  `json:"service"`
	Root    bool    `json:"root,omitempty"`
	Start   string  `json:"start"`
	StartNS int64   `json:"start_unix_ns"`
	Micros  float64 `json:"duration_us"`
	Attrs   []Attr  `json:"attrs,omitempty"`
}

func toJSONSpan(s SpanData) jsonSpan {
	js := jsonSpan{
		Trace:   s.TraceID.String(),
		Span:    s.SpanID.String(),
		Name:    s.Name,
		Service: s.Service,
		Root:    s.Root,
		Start:   s.Start.UTC().Format("2006-01-02T15:04:05.000000Z"),
		StartNS: s.Start.UnixNano(),
		Micros:  float64(s.Duration.Nanoseconds()) / 1e3,
		Attrs:   s.Attrs,
	}
	if !s.Parent.IsZero() {
		js.Parent = s.Parent.String()
	}
	return js
}

// Handler serves the tracer's retained spans:
//
//	GET /debug/traces                  recent spans as JSON, oldest first
//	GET /debug/traces?trace=<32 hex>   one trace only
//	GET /debug/traces?format=chrome    Chrome trace_event JSON (Perfetto)
//
// A nil tracer serves 404, so daemons can mount the route unconditionally
// and the path itself documents whether tracing is on.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled (start with -trace or -trace-slow)", http.StatusNotFound)
			return
		}
		spans := t.Snapshot()
		if q := r.URL.Query().Get("trace"); q != "" {
			filtered := spans[:0]
			for _, s := range spans {
				if s.TraceID.String() == q {
					filtered = append(filtered, s)
				}
			}
			spans = filtered
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
			WriteChrome(w, spans)
			return
		}
		out := struct {
			Service string     `json:"service"`
			Spans   []jsonSpan `json:"spans"`
		}{Service: t.Service(), Spans: make([]jsonSpan, 0, len(spans))}
		for _, s := range spans {
			out.Spans = append(out.Spans, toJSONSpan(s))
		}
		obs.WriteJSON(w, out)
	})
}

// HTTP wraps a daemon's API mux: each request gets a root span named
// prefix + " METHOD path" that adopts an incoming traceparent header, the
// response echoes the span's own context in the same header, handlers find
// it in the request context for their ingest spans, and the request's header
// is rewritten so a proxied call carries the span to its backend. With
// tracing off next is returned untouched, so the HTTP path stays exactly as
// before. Probe and introspection endpoints are exempt — a scrape every few
// seconds would drown real request trees in the span ring.
func HTTP(t *Tracer, prefix string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/metrics", "/debug/traces":
			next.ServeHTTP(w, r)
			return
		}
		remote, _ := ParseTraceparent(r.Header.Get(Header))
		sp := t.Root(prefix+" "+r.Method+" "+r.URL.Path, remote)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		tp := sp.Context().Traceparent()
		w.Header().Set(Header, tp)
		r.Header.Set(Header, tp)
		next.ServeHTTP(w, r.WithContext(ContextWith(r.Context(), sp.Context())))
		sp.End()
	})
}

// chromeEvent is one entry of the Chrome trace_event format. Spans map to
// "X" (complete) events with microsecond timestamps; processes and
// threads are named with "M" (metadata) events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes spans as Chrome trace_event JSON: one Perfetto
// process per service, one thread per trace ID, so a fleet-wide trace
// renders as parallel tracks of client, router, and backend spans sharing
// a timeline. Timestamps are microseconds since the earliest span.
func WriteChrome(w io.Writer, spans []SpanData) error {
	events := make([]chromeEvent, 0, 2*len(spans)+len(spans))
	pids := map[string]int{}
	tids := map[TraceID]int{}
	var epoch int64
	for _, s := range spans {
		if epoch == 0 || s.Start.UnixNano() < epoch {
			epoch = s.Start.UnixNano()
		}
	}
	for _, s := range spans {
		pid, ok := pids[s.Service]
		if !ok {
			pid = len(pids) + 1
			pids[s.Service] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": s.Service},
			})
		}
		tid, ok := tids[s.TraceID]
		if !ok {
			tid = len(tids) + 1
			tids[s.TraceID] = tid
		}
		args := map[string]any{
			"trace":  s.TraceID.String(),
			"span":   s.SpanID.String(),
			"parent": s.Parent.String(),
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Service,
			Ph:   "X",
			TS:   float64(s.Start.UnixNano()-epoch) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			PID:  pid,
			TID:  tid,
			Args: args,
		})
	}
	// Name each thread after its trace ID so Perfetto's track labels are
	// greppable back to /debug/traces?trace=<id>.
	for id, tid := range tids {
		for _, pid := range pids {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": "trace " + id.String()},
			})
		}
	}
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
