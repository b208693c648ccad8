package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput pins the bytes tracegen writes for one program, scale and
// seed, in both formats. The binary digest covers the streamed file's header
// (the id spaces race.HintsOf declares), so a change to how that header is
// derived or encoded shows here; the text digest covers the generator.
func TestGoldenOutput(t *testing.T) {
	dir, bin := build(t)
	for _, c := range []struct {
		name   string
		args   []string
		digest string
	}{
		{"binary", []string{"-program", "h2", "-scale", "20000", "-seed", "2"}, "6f4856c8f262d12e577c8e2bb4dfe60c643e83223887949dc3d9ff5aff0390ba"},
		{"text", []string{"-program", "h2", "-scale", "20000", "-seed", "2", "-text"}, "b89a3407e876b1264eddbfc35db843d0ce4a8c62c6538c1e4a53a3cd43a11b1b"},
		{"figure1-binary", []string{"-figure", "figure1"}, "c81856b0abf9ae71bd783a687443a94342856cffd2454527edb07ec041fc4510"},
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
