package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type for the exposition written by
// WriteText (Prometheus text format v0.0.4).
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves reg's snapshot as the text exposition — the GET
// /metrics of raced and racefleet, whatever the request's query string or
// Accept header asks for.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		WriteText(w, reg.Snapshot())
	})
}

// WriteText encodes a snapshot in the Prometheus text exposition
// format, version 0.0.4. Samples sharing a family name are emitted
// contiguously under a single # HELP/# TYPE header, as the format
// requires; within a family, first-registration order is kept.
func WriteText(w io.Writer, snaps []MetricSnapshot) error {
	bw := bufio.NewWriter(w)

	// Group by family name, preserving first-appearance order.
	seen := make(map[string][]MetricSnapshot)
	var names []string
	for _, s := range snaps {
		if _, ok := seen[s.Name]; !ok {
			names = append(names, s.Name)
		}
		seen[s.Name] = append(seen[s.Name], s)
	}

	for _, name := range names {
		fam := seen[name]
		help := ""
		for _, s := range fam {
			if s.Help != "" {
				help = s.Help
				break
			}
		}
		if help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(fam[0].Kind.String())
		bw.WriteByte('\n')

		for _, s := range fam {
			if s.Kind == KindHistogram && s.Hist != nil {
				writeHistogram(bw, s)
				continue
			}
			writeSample(bw, s.Name, s.Labels, s.Value)
		}
	}
	return bw.Flush()
}

func writeHistogram(bw *bufio.Writer, s MetricSnapshot) {
	h := s.Hist
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		writeSample(bw, s.Name+"_bucket", s.Labels, float64(cum), L("le", formatFloat(bound)))
	}
	cum += h.Counts[len(h.Bounds)]
	writeSample(bw, s.Name+"_bucket", s.Labels, float64(cum), L("le", "+Inf"))
	writeSample(bw, s.Name+"_sum", s.Labels, h.Sum)
	writeSample(bw, s.Name+"_count", s.Labels, float64(cum))
}

// writeSample emits one sample line, name{k="v",...} over labels, then
// extra (the histogram "le"), then the value.
func writeSample(bw *bufio.Writer, name string, labels []Label, v float64, extra ...Label) {
	bw.WriteString(name)
	sep := byte('{')
	for _, ls := range [2][]Label{labels, extra} {
		for _, l := range ls {
			bw.WriteByte(sep)
			bw.WriteString(l.Key)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
			sep = ','
		}
	}
	if sep == ',' {
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
