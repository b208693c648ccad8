package race

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// avroraReport is the ST-WDC report of avrora/400 (3.5 M events), the
// report each ingest benchmark session closes into.
var avroraReport = sync.OnceValue(func() *Report {
	p, _ := workload.ProgramByName("avrora")
	rep, err := AnalyzeByName(p.Generate(400, 1), "ST-WDC")
	if err != nil {
		panic(err)
	}
	return rep
})

// BenchmarkReportJSON encodes avrora/400's ST-WDC report, as a closing
// session does once: B/op against the document's length (doc-bytes), and
// ns/op.
func BenchmarkReportJSON(b *testing.B) {
	rep := avroraReport()
	doc, _ := rep.MarshalJSON()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := rep.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(doc)), "doc-bytes")
}
