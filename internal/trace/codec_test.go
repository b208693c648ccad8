package trace_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWriteBinaryDigest pins WriteBinary's bytes for a generated trace: the
// 16-byte version-2 header, then records byte-identical to those the
// per-record writer wrote behind version 1's 36-byte header (sha256 of the
// records alone: e0d596c8…).
func TestWriteBinaryDigest(t *testing.T) {
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(2000, 1)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = "0d6a22a6ffc1aac7e8adaba56bbf7531e8cbfaf3657694eb7e0d5466d0e13644"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("WriteBinary(avrora/2000, seed 1): %d events, %d bytes, sha256 %s, want %s", tr.Len(), buf.Len(), got, want)
	}
}
