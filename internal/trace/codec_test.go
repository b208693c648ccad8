package trace_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWriteBinaryDigest pins WriteBinary's bytes for a generated trace to
// the digest of the per-record writer it replaced: the records go through
// the run codec (WriteRecords), the file is the same.
func TestWriteBinaryDigest(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(2000, 1)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = "14e14ffd66ce1258affc77cc631d2dda5f4ec7ded1eeebf1d54fb962e54620fb"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("WriteBinary(avrora/2000, seed 1): %d events, %d bytes, sha256 %s, want %s", tr.Len(), buf.Len(), got, want)
	}
}
