package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/race"
)

// TestGoldenOutput pins the bytes tracegen writes for one program, scale and
// seed, in both formats. The binary digest covers the file's header (magic,
// version, exact event count), so a change to how that header is encoded
// shows here; the text digest covers the generator. Behind the version-2
// header the records are those version 1 wrote behind its 36 bytes (h2:
// sha256 ac64ccc6…, figure1: 0b7ac330…), and so are the text's event lines.
func TestGoldenOutput(t *testing.T) {
	dir, bin := build(t)
	for _, c := range []struct {
		name   string
		args   []string
		digest string
	}{
		{"binary", []string{"-program", "h2", "-scale", "20000", "-seed", "2"}, "8c41fdf2c851174e848b07f573f3741d98cee45cf11b93c7ae69acd9f5d328e3"},
		{"text", []string{"-program", "h2", "-scale", "20000", "-seed", "2", "-text"}, "992a5066d9a08054570d0920ffaea81359b94ea9edf522040ef5d8e7ee2a9a6f"},
		{"figure1-binary", []string{"-figure", "figure1"}, "4e7a05931a25257e5459e855f14bb81333ff6ef54269c1042ab6c85341c6a3c5"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(dir, c.name)
			cmd := exec.Command(bin, append(c.args, "-o", out)...)
			if msg, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("tracegen %v: %v\n%s", c.args, err, msg)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.digest {
				t.Errorf("tracegen %v: sha256 %s (%d bytes), want %s", c.args, got, len(data), c.digest)
			}
		})
	}
}

// TestFileCutAtARecordBoundaryIsRefused: tracegen's header carries the exact
// event count, so a file cut short is refused even when the cut falls
// between two records, where a count found at EOF would read a shorter
// trace as whole.
func TestFileCutAtARecordBoundaryIsRefused(t *testing.T) {
	dir, bin := build(t)
	out := filepath.Join(dir, "h2.trace")
	if msg, err := exec.Command(bin, "-program", "h2", "-scale", "20000", "-seed", "2", "-o", out).CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	const header, record = 16, 12
	n := (len(data) - header) / record
	for _, k := range []int{0, 1, n / 2, n - 1} {
		_, err := race.ReadTrace(bytes.NewReader(data[:header+k*record]))
		if want := fmt.Sprintf("trace: truncated at event %d of %d", k, n); err == nil || err.Error() != want {
			t.Errorf("cut after %d of %d events: %v, want %q", k, n, err, want)
		}
	}
	if tr, err := race.ReadTrace(bytes.NewReader(data)); err != nil || tr.Len() != n {
		t.Errorf("whole file: %v", err)
	}
}

// TestScaleBelowOneIsRefused: -scale divides the program's size, so 0 or a
// negative value is refused with a message and exit status 2, not a panic.
func TestScaleBelowOneIsRefused(t *testing.T) {
	dir, bin := build(t)
	for _, scale := range []string{"0", "-3"} {
		out := filepath.Join(dir, "scale"+scale)
		msg, err := exec.Command(bin, "-program", "h2", "-scale", scale, "-o", out).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(msg), "at least 1") || strings.Contains(string(msg), "panic") {
			t.Errorf("tracegen -scale %s: %v\n%s", scale, err, msg)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("tracegen -scale %s wrote %s", scale, out)
		}
	}
}

// build compiles tracegen into a fresh temporary directory.
func build(t *testing.T) (dir, bin string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tracegen: %v\n%s", err, out)
	}
	return dir, bin
}
