package fto

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/vc"
	"repro/internal/workload"
)

// pins are FNV-1a digests of standalone FTO-X — the executing thread's P
// after every event, then every race record — recorded at commit 3116445,
// when FTO's rule (a) tables still marked every write as a read as well
// (ccs.LockTables.MarkWritesAsReads, since deleted as unobservable).
var pins = map[string][3]uint64{ // trace → WCP, DC, WDC
	"h2":       {0x97361a2f57da48b, 0xdfb1d7ecb06203d6, 0xbbe922acefa95250},
	"xalan":    {0xc7d415ca4de8cc8b, 0x81364e70441b311d, 0x1da5cf74c11178af},
	"avrora":   {0x4b65f29bfc884dd7, 0x310057fb981a9545, 0x310057fb981a9545},
	"pmd":      {0x954ffec023650662, 0xbe7041cf53f64a14, 0xbe7041cf53f64a14},
	"random-0": {0xad9b13cdb18484f, 0x194c0a6788d81a28, 0xce63f456c4efb789},
	"random-1": {0x633bb764a7620d10, 0xb39c5b286aad9069, 0x9e217a80323901c1},
	"random-2": {0x148adba21fb88e90, 0x5ad9fa33059ded96, 0x2da35bc5ab7e350a},
	"random-3": {0x7808a0fdf5a7f6d9, 0xb1ad72714554e329, 0xea4e824c85096ea0},
}

func pinTrace(name string) *trace.Trace {
	if p, ok := workload.ProgramByName(name); ok {
		return p.Generate(40000, 7)
	}
	var seed int64
	fmt.Sscanf(name, "random-%d", &seed)
	return workload.Random(workload.RandomConfig{
		Seed: seed, Threads: 5, Vars: 6, Locks: 3, Events: 4000, ForkJoin: seed%2 == 0, Volatiles: 1,
	})
}

// TestClocksAndReportsPinned: dropping the read mark on writes changed
// neither P at any event nor any race FTO-WCP/DC/WDC reports. P is
// rendered at the trace's thread count, so the digest reads the clock's
// values, not how far its storage has grown.
func TestClocksAndReportsPinned(t *testing.T) {
	for name, want := range pins {
		tr := pinTrace(name)
		for i, rel := range []analysis.Relation{analysis.WCP, analysis.DC, analysis.WDC} {
			a := New(rel)
			h := fnv.New64a()
			for i, e := range tr.Events {
				a.HandleRun(tr.Events[i:i+1], nil)
				p := vc.New(trace.ExtentOf(tr.Events).Threads)
				p.Join(a.Sub.P[e.T])
				io.WriteString(h, p.String())
			}
			for _, r := range a.Races().Races() {
				fmt.Fprintf(h, "%+v", r)
			}
			if got := h.Sum64(); got != want[i] {
				t.Errorf("FTO-%v on %s: digest %#x, pinned %#x", rel, name, got, want[i])
			}
		}
	}
}
