package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func quickPrepared(t *testing.T, name string, seed int64) *prepared {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	p, err := w.prepare(seed, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func passAndVerify(p *prepared) (int, error) {
	c := &passCtx{}
	outs := p.pass(c)
	c.finish()
	return p.verify(outs)
}

// TestOracleRejectsWrongExpectation feeds the checker deliberately wrong
// expectations and requires every pass-session to fail — first the
// generator-seeded static count, then the reference bytes — on an engine
// workload and on a wire workload.
func TestOracleRejectsWrongExpectation(t *testing.T) {
	for _, name := range []string{"detect-nested", "ingest-direct"} {
		p := quickPrepared(t, name, 1)
		if failed, err := passAndVerify(p); failed != 0 || err != nil {
			t.Fatalf("%s: an honest pass failed: %d, %v", name, failed, err)
		}

		p.oracle.static["ST-WDC"]++
		failed, err := passAndVerify(p)
		if failed != p.sessions() || err == nil || !strings.Contains(err.Error(), "static races") {
			t.Errorf("%s: wrong static expectation: failed = %d of %d, err = %v", name, failed, p.sessions(), err)
		}
		p.oracle.static["ST-WDC"]--

		ref := p.oracle.want["ST-WDC"]
		p.oracle.want["ST-WDC"] = bytes.Replace(ref, []byte(`"analysis"`), []byte(`"analysiz"`), 1)
		failed, err = passAndVerify(p)
		if failed != p.sessions() || err == nil || !strings.Contains(err.Error(), "differs from the batch reference") {
			t.Errorf("%s: wrong reference bytes: failed = %d of %d, err = %v", name, failed, p.sessions(), err)
		}
	}
}

// TestFailedOperationIsAnError pins the exit path: a result with a failed
// operation still prints its line, says correct=false, and makes run return
// an error (main turns that into a non-zero exit).
func TestFailedOperationIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := finish(&out, resultOf(endToEnd, map[string]float64{"setup_s": 1}, 10, 1))
	if err == nil {
		t.Error("a failed operation did not produce an error")
	}
	var res result
	if jerr := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); jerr != nil || res.Correct || res.Failed != 1 || res.Attempted != 10 {
		t.Errorf("result line %q → %+v (%v)", out.String(), res, jerr)
	}
	if err := finish(io.Discard, resultOf(endToEnd, nil, 10, 0)); err != nil {
		t.Errorf("a clean result is an error: %v", err)
	}
}
