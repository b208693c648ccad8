package fault_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
)

func TestRandDeterminism(t *testing.T) {
	a, b := chaos.NewRand(42), chaos.NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := chaos.NewRand(43)
	if chaos.NewRand(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestInjectFSSyncSchedule(t *testing.T) {
	dir := t.TempDir()
	fsys := chaos.NewInjectFS(fault.OS{}, chaos.FSPlan{FailSyncEvery: 3})
	f, err := fsys.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var fails int
	for i := 1; i <= 9; i++ {
		err := f.Sync()
		if i%3 == 0 {
			if err == nil {
				t.Fatalf("sync %d: want injected failure", i)
			}
			if !fault.Injected(err) || !errors.Is(err, syscall.EIO) {
				t.Fatalf("sync %d: error not classified: %v", i, err)
			}
			fails++
		} else if err != nil {
			t.Fatalf("sync %d: unexpected error %v", i, err)
		}
	}
	if got := fsys.Injected(); got != int64(fails) || fails != 3 {
		t.Fatalf("sync fault count = %d (observed %d), want 3", got, fails)
	}
}

func TestInjectFSENOSPC(t *testing.T) {
	dir := t.TempDir()
	fsys := chaos.NewInjectFS(fault.OS{}, chaos.FSPlan{ENOSPCAfter: 10})
	f, err := fsys.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 8)); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	_, err = f.Write(make([]byte, 8))
	if !errors.Is(err, syscall.ENOSPC) || !fault.Injected(err) {
		t.Fatalf("want injected ENOSPC, got %v", err)
	}
}

func TestCrashFSPowerCut(t *testing.T) {
	dir := t.TempDir()
	fsys := chaos.NewCrashFS()
	path := filepath.Join(dir, "seg")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("lost-on-cut")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, chaos.ErrPowerCut) {
		t.Fatalf("post-cut write: want chaos.ErrPowerCut, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable!" {
		t.Fatalf("after cut file = %q, want synced prefix only", got)
	}
	if !fault.Injected(chaos.ErrPowerCut) {
		t.Fatal("chaos.ErrPowerCut must wrap fault.ErrInjected")
	}
}

func TestCrashFSCutAtSync(t *testing.T) {
	dir := t.TempDir()
	for _, after := range []bool{false, true} {
		fsys := chaos.NewCrashFS()
		fsys.CutAtSync(2, after, 0)
		path := filepath.Join(dir, "f")
		os.Remove(path)
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o666)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("aa"))
		if err := f.Sync(); err != nil {
			t.Fatalf("sync 1 (after=%v): %v", after, err)
		}
		f.Write([]byte("bb"))
		if err := f.Sync(); !errors.Is(err, chaos.ErrPowerCut) {
			t.Fatalf("sync 2 (after=%v): want power cut, got %v", after, err)
		}
		got, _ := os.ReadFile(path)
		want := "aa"
		if after {
			want = "aabb"
		}
		if string(got) != want {
			t.Fatalf("after=%v: file %q, want %q", after, got, want)
		}
	}
}

// pipeThrough sends msg across a net.Pipe in calls of step bytes, both ends
// cut alike, with the sending (wrapRead false) or the receiving end wrapped
// by f. It returns what arrived before the stream ended and the receiver's
// error.
func pipeThrough(msg []byte, step int, f *chaos.ConnFaults, wrapRead bool) ([]byte, error) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	w, r := net.Conn(client), net.Conn(srv)
	if wrapRead {
		r = f.Wrap(srv)
	} else {
		w = f.Wrap(client)
	}
	go func() {
		for off := 0; off < len(msg); off += step {
			if _, err := w.Write(msg[off:min(off+step, len(msg))]); err != nil {
				return
			}
		}
	}()
	var got []byte
	buf := make([]byte, step)
	for len(got) < len(msg) {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// TestConnBitFlip: a flip is one bit of the byte at an offset drawn from
// the seed — the same byte however the stream is cut into calls, on Write
// and on Read, and whether or not a connection that never passed FirstByte
// came first — and the caller's buffer is left alone.
func TestConnBitFlip(t *testing.T) {
	plan := chaos.ConnPlan{Seed: 7, FaultAfter: 1 << 10, FirstByte: 64}
	msg := make([]byte, 4<<10)
	want := map[bool][]byte{}
	for _, step := range []int{len(msg), 100, 7} {
		for _, wrapRead := range []bool{false, true} {
			f := chaos.NewConnFaults(plan)
			if step == 7 { // a handshake-sized stream first: it draws nothing
				if _, err := pipeThrough(msg[:64], step, f, wrapRead); err != nil {
					t.Fatal(err)
				}
			}
			got, err := pipeThrough(msg, step, f, wrapRead)
			if err != nil {
				t.Fatal(err)
			}
			diff := 0
			for i := range got {
				if got[i] != msg[i] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("step %d, read side %v: flipped %d bytes, want exactly 1", step, wrapRead, diff)
			}
			if n := f.Faults(); n != 1 {
				t.Fatalf("fault counter = %d, want 1", n)
			}
			if want[wrapRead] == nil {
				want[wrapRead] = got
			} else if !bytes.Equal(got, want[wrapRead]) {
				t.Fatalf("step %d, read side %v: the flip moved", step, wrapRead)
			}
		}
	}
	if !bytes.Equal(msg, make([]byte, len(msg))) {
		t.Fatal("caller's buffer was mutated")
	}
}

// TestConnDrop: a drop cuts the stream at an offset drawn from the seed —
// the bytes before it arrive, however the reads are cut — and the
// connection stays dead.
func TestConnDrop(t *testing.T) {
	plan := chaos.ConnPlan{Seed: 1, FaultAfter: 1 << 10, DropProb: 1}
	msg := bytes.Repeat([]byte("racechaos"), 512)
	var want []byte
	for _, step := range []int{len(msg), 100, 7} {
		got, err := pipeThrough(msg, step, chaos.NewConnFaults(plan), true)
		if !fault.Injected(err) {
			t.Fatalf("step %d: want injected drop error, got %v", step, err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("step %d: %d bytes arrived before the drop, want %d", step, len(got), len(want))
		}
	}
	if len(want) < 1<<9 || !bytes.Equal(want, msg[:len(want)]) {
		t.Fatalf("%d bytes arrived before the drop, want an intact prefix of at least %d", len(want), 1<<9)
	}

	plan.FaultAfter = 2
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err == nil {
			defer c.Close()
			buf := make([]byte, 1024)
			for {
				if _, err := c.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := chaos.NewConnFaults(plan).Wrap(raw)
	_, werr := fc.Write(make([]byte, 128))
	if !fault.Injected(werr) {
		t.Fatalf("want injected drop error, got %v", werr)
	}
	if _, err := fc.Write([]byte("x")); !fault.Injected(err) {
		t.Fatalf("conn should stay dead after drop, got %v", err)
	}
}

// TestGateSchedule: a gate's windows are counted in calls, so one seed
// fails the same calls every time and another seed fails others. It starts
// up, flaps, and every window stays within [mean/2, 3·mean/2) calls.
func TestGateSchedule(t *testing.T) {
	plan := chaos.GatePlan{Seed: 5, MeanUp: 8, MeanDown: 4}
	schedule := func(plan chaos.GatePlan) (string, int64) {
		g := chaos.NewGate(plan)
		var s []byte
		for i := 0; i < 200; i++ {
			switch err := g.Err(); {
			case err == nil:
				s = append(s, '+')
			case fault.Injected(err) && errors.Is(err, syscall.ECONNREFUSED):
				s = append(s, '-')
			default:
				t.Fatalf("call %d: unclassified gate error %v", i, err)
			}
		}
		return string(s), g.Faults()
	}
	a, faults := schedule(plan)
	if b, _ := schedule(plan); a != b {
		t.Fatalf("one seed, two schedules:\n%s\n%s", a, b)
	}
	other := plan
	other.Seed = 6
	if c, _ := schedule(other); a == c {
		t.Fatalf("seeds 5 and 6 gave the same schedule %s", a)
	}
	if a[0] != '+' {
		t.Fatalf("gate starts down: %s", a)
	}
	if want := int64(strings.Count(a, "-")); faults != want || faults == 0 {
		t.Fatalf("Faults() = %d, want the %d refused calls of %s", faults, want, a)
	}
	// Every window but the last (cut off at 200 calls) keeps to its bounds.
	for i, j := 0, 0; ; i = j {
		for j < len(a) && a[j] == a[i] {
			j++
		}
		if j == len(a) {
			break
		}
		mean := plan.MeanUp
		if a[i] == '-' {
			mean = plan.MeanDown
		}
		if n := j - i; n < mean/2 || n >= mean/2+mean {
			t.Errorf("window at call %d lasts %d calls, want [%d, %d)", i, n, mean/2, mean/2+mean)
		}
	}
}
