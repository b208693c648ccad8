package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type for the exposition written by
// WriteText (Prometheus text format v0.0.4).
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// AcceptsText reports whether an HTTP Accept header asks for the
// Prometheus text exposition — the content-negotiation alternative to the
// ?format=prometheus query parameter. Any "text/plain" entry counts
// (Prometheus sends "text/plain;version=0.0.4"); wildcards deliberately
// do not, so a browser's "*/*" keeps getting the JSON default.
func AcceptsText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mediaType) == "text/plain" {
			return true
		}
	}
	return false
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

// writeSample emits one sample line; extra appends a synthetic label (the
// histogram "le").
func writeSample(bw *bufio.Writer, name string, labels []Label, v float64, extra ...Label) {
	writeSeries(bw, name, labels, extra...)
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
