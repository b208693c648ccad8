package fault

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := NewRand(43)
	if NewRand(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestInjectFSSyncSchedule(t *testing.T) {
	dir := t.TempDir()
	fsys := NewInjectFS(OS{}, FSPlan{FailSyncEvery: 3})
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
			if !Injected(err) || !errors.Is(err, syscall.EIO) {
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
	fsys := NewInjectFS(OS{}, FSPlan{ENOSPCAfter: 10})
	f, err := fsys.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 8)); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	_, err = f.Write(make([]byte, 8))
	if !errors.Is(err, syscall.ENOSPC) || !Injected(err) {
		t.Fatalf("want injected ENOSPC, got %v", err)
	}
}

func TestCrashFSPowerCut(t *testing.T) {
	dir := t.TempDir()
	fsys := NewCrashFS()
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
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("post-cut write: want ErrPowerCut, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable!" {
		t.Fatalf("after cut file = %q, want synced prefix only", got)
	}
	if !Injected(ErrPowerCut) {
		t.Fatal("ErrPowerCut must wrap ErrInjected")
	}
}

func TestCrashFSCutAtSync(t *testing.T) {
	dir := t.TempDir()
	for _, after := range []bool{false, true} {
		fsys := NewCrashFS()
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
		if err := f.Sync(); !errors.Is(err, ErrPowerCut) {
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

func TestConnBitFlip(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	stats := NewConnStats()
	fc := WrapConn(client, ConnPlan{Seed: 7, FlipProb: 1}, stats)
	msg := make([]byte, 64)
	go fc.Write(msg)
	got := make([]byte, 64)
	if _, err := srv.Read(got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bytes, want exactly 1", diff)
	}
	if stats.Counts()["flip"] != 1 {
		t.Fatalf("flip counter = %v", stats.Counts())
	}
	if msg[0] != 0 {
		t.Fatal("caller's buffer was mutated")
	}
}

func TestConnDrop(t *testing.T) {
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
	fc := WrapConn(raw, ConnPlan{Seed: 1, DropProb: 1}, nil)
	_, werr := fc.Write(make([]byte, 128))
	if !Injected(werr) {
		t.Fatalf("want injected drop error, got %v", werr)
	}
	if _, err := fc.Write([]byte("x")); !Injected(err) {
		t.Fatalf("conn should stay dead after drop, got %v", err)
	}
}

func TestGateSchedule(t *testing.T) {
	g := NewGate(GatePlan{Seed: 5, MeanUp: 40 * time.Millisecond, MeanDown: 40 * time.Millisecond, StartDown: true})
	err := g.Err()
	if err == nil || !Injected(err) || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("StartDown gate should begin down with a classified error, got %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	sawUp, sawDownAgain := false, false
	for time.Now().Before(deadline) {
		e := g.Err()
		if e == nil {
			sawUp = true
		} else if sawUp {
			sawDownAgain = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawUp || !sawDownAgain {
		t.Fatalf("gate did not flap (up=%v downAgain=%v)", sawUp, sawDownAgain)
	}
	if g.Faults() == 0 {
		t.Fatal("fault counter never advanced")
	}
}
