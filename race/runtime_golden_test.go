package race_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/race"
)

// readVia and writeVia record through the Skip entry points the way
// race/sync's shadow wrappers do: the site is the helper's caller.
func readVia(rt *race.Runtime, t race.Tid, key any)  { rt.ReadSkip(t, key, 1) }
func writeVia(rt *race.Runtime, t race.Tid, key any) { rt.WriteSkip(t, key, 1) }

// recordScript drives every Runtime operation from one goroutine, so the
// linearization is a function of the script alone: reentrant and nested
// locking, Locked, Skip-attributed accesses from two lines, plain and keyed
// volatiles, a fork/join mid-stream, unordered accesses that race, and
// sections still open at the end.
func recordScript(rt *race.Runtime) {
	var x, y, z int
	t0 := rt.Main()
	rt.Write(t0, &x)
	rt.Acquire(t0, "outer")
	rt.Acquire(t0, "outer") // reentrant: filtered
	rt.Locked(t0, "inner", func() { rt.Read(t0, &y) })
	rt.Release(t0, "outer") // still held once
	rt.Write(t0, &y)
	rt.Release(t0, "outer")

	t1 := rt.Go(t0)
	readVia(rt, t1, &x)
	writeVia(rt, t1, &y)
	writeVia(rt, t1, &z)
	rt.VolatileWrite(t1, "flag")
	rt.VolatileRead(t0, "flag")
	rt.VolatileWriteKeyed(t1, "chan", 0)
	rt.VolatileReadKeyed(t0, "chan", 0)
	rt.VolatileReadKeyed(t0, "chan", 1)
	rt.Locked(t1, "inner", func() { rt.Write(t1, &x) })
	rt.Write(t1, &z)
	rt.Join(t0, t1)
	rt.Read(t0, &z)

	t2 := rt.Go(t0)
	t3 := rt.Go(t0)
	rt.Write(t2, &x)
	rt.Read(t0, &x)
	rt.Acquire(t2, "m2")
	rt.Acquire(t2, "m3")
	rt.Acquire(t2, "m2") // reentrant inside a nest
	rt.Write(t2, &y)
	rt.Release(t2, "m2")
	rt.Locked(t3, "m3x", func() { readVia(rt, t3, &y) })
	rt.Acquire(t0, "outer")
	rt.Write(t0, &y)
	rt.Acquire(t3, "late")
	rt.Write(t3, &z)
	// Left open: t0 holds outer; t2 holds m2 (once more) and m3; t3 holds late.
}

// goldenRuntime pins, from before the recorder was rewritten, the stream
// recordScript records: the text of a record-mode Snapshot, the report JSON
// of Finish with an attached vindicating engine, and the Snapshot taken
// after that Finish. The text's first line became a legend when the text
// format stopped declaring id-space sizes; its event lines, whose sha256 is
// 3f70d931…, did not change.
var goldenRuntime = struct{ snapshot, finish, afterFinish string }{
	snapshot:    "68dfb0d868d52fa19ed621f93c7cc308edc4ff7e057685e964e2f8577445f895",
	finish:      "e25888ec419cb07bb8cd362e167e65d9ef8a599b3e96cdaeec19f5b5d5f86d73",
	afterFinish: "68dfb0d868d52fa19ed621f93c7cc308edc4ff7e057685e964e2f8577445f895",
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func snapshotText(t *testing.T, rt *race.Runtime) []byte {
	t.Helper()
	tr, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := race.WriteTraceText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRuntimeGoldenStream: the recorder's event order, its variable, lock
// and volatile ids, its Locs and its closing releases are byte-identical to
// the pinned recording.
func TestRuntimeGoldenStream(t *testing.T) {
	rt := race.NewRuntime()
	recordScript(rt)
	snap := snapshotText(t, rt)

	eng, err := race.NewEngine(race.WithAnalysisNames("ST-WDC", "FTO-HB", "ST-DC"), race.WithVindication())
	if err != nil {
		t.Fatal(err)
	}
	at := race.NewRuntime(race.WithEngineAttached(eng))
	recordScript(at)
	rep, err := at.Finish()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	after := snapshotText(t, at)
	if rep.Dynamic() == 0 {
		t.Error("the script records no race: the report digest pins nothing")
	}

	for _, c := range []struct {
		name string
		doc  []byte
		want string
	}{
		{"record-mode Snapshot", snap, goldenRuntime.snapshot},
		{"attached Finish report", doc, goldenRuntime.finish},
		{"Snapshot after Finish", after, goldenRuntime.afterFinish},
	} {
		if got := digestOf(c.doc); got != c.want {
			t.Errorf("%s: sha256 %s, pinned %s\n%s", c.name, got, c.want, c.doc)
		}
	}
}
