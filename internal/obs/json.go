package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// MetricsHandler serves reg's snapshot — the GET /metrics of raced and
// racefleet — two ways: ?format=prometheus, or a Prometheus-style Accept:
// text/plain; version=0.0.4 header, emits the text exposition (v0.0.4); the
// default is the same snapshot as a JSON map keyed by canonical metric name
// (see the README catalog).
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "prometheus" || AcceptsText(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", TextContentType)
			WriteText(w, snap)
			return
		}
		WriteJSON(w, JSONMap(snap))
	})
}

// WriteJSON answers an HTTP request with v as an indented JSON document —
// the response body of every JSON endpoint of raced and racefleet.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// SeriesKey spells a series name{k="v",...} exactly as the Prometheus
// exposition does (the bare name without labels) — one spelling
// (writeSeries) for the text view, the JSON view's keys and a collector
// report's keys, so they match what an operator sees scraping by hand.
func SeriesKey(name string, labels []Label) string {
	var b strings.Builder
	writeSeries(&b, name, labels)
	return b.String()
}

// writeSeries writes name{k="v",...} over labels, then extra.
func writeSeries(w interface {
	io.StringWriter
	io.ByteWriter
}, name string, labels []Label, extra ...Label) {
	w.WriteString(name)
	sep := byte('{')
	for _, ls := range [2][]Label{labels, extra} {
		for _, l := range ls {
			w.WriteByte(sep)
			w.WriteString(l.Key)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(l.Value))
			w.WriteByte('"')
			sep = ','
		}
	}
	if sep == ',' {
		w.WriteByte('}')
	}
}

// JSONMap renders a snapshot as a flat JSON-marshalable map keyed by
// SeriesKey. Counters and gauges map to their value; histograms map to a
// {count, sum, p50, p90, p99} object.
func JSONMap(snaps []MetricSnapshot) map[string]any {
	out := make(map[string]any, len(snaps))
	for _, s := range snaps {
		key := SeriesKey(s.Name, s.Labels)
		if s.Kind == KindHistogram && s.Hist != nil {
			out[key] = map[string]any{
				"count": s.Hist.Count,
				"sum":   s.Hist.Sum,
				"p50":   s.Hist.Quantile(0.50),
				"p90":   s.Hist.Quantile(0.90),
				"p99":   s.Hist.Quantile(0.99),
			}
			continue
		}
		out[key] = s.Value
	}
	return out
}
