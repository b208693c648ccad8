package fault

import (
	"fmt"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// FSPlan configures an InjectFS. Deterministic count-based triggers
// (FailSyncEvery, ENOSPCAfter) fire regardless of goroutine interleaving;
// probability-based triggers draw from the seeded PRNG, so they are
// deterministic for a fixed operation order.
type FSPlan struct {
	Seed uint64

	// FailSyncEvery makes every Nth File.Sync (counted across all files)
	// fail with an injected EIO. 0 disables.
	FailSyncEvery int
	// SyncFailProb fails each Sync with this probability.
	SyncFailProb float64
	// WriteFailProb fails each Write with an injected EIO before any
	// bytes reach the inner file.
	WriteFailProb float64
	// ShortWriteProb makes a Write persist only a prefix of the buffer
	// and return an injected short-write error.
	ShortWriteProb float64
	// ENOSPCAfter injects ENOSPC on every write once the total bytes
	// written through this FS exceed the budget. 0 disables.
	ENOSPCAfter int64
}

// InjectFS layers fault injection over an inner FS. Directory and
// metadata operations pass through untouched; data-path operations
// (Write, Sync) consult the plan.
type InjectFS struct {
	inner FS
	plan  FSPlan

	mu      sync.Mutex
	rng     *Rand
	syncs   int64
	written int64
	hits    int64 // faults injected
}

// NewInjectFS wraps inner with the fault schedule described by plan.
func NewInjectFS(inner FS, plan FSPlan) *InjectFS {
	if inner == nil {
		inner = OS{}
	}
	return &InjectFS{inner: inner, plan: plan, rng: NewRand(plan.Seed)}
}

// Injected returns the total number of faults injected so far.
func (f *InjectFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func (f *InjectFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: f, inner: inner, name: name}, nil
}

func (f *InjectFS) Open(name string) (File, error)             { return f.inner.Open(name) }
func (f *InjectFS) ReadFile(name string) ([]byte, error)       { return f.inner.ReadFile(name) }
func (f *InjectFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *InjectFS) Stat(name string) (os.FileInfo, error)      { return f.inner.Stat(name) }
func (f *InjectFS) MkdirAll(name string, perm os.FileMode) error {
	return f.inner.MkdirAll(name, perm)
}
func (f *InjectFS) Remove(name string) error               { return f.inner.Remove(name) }
func (f *InjectFS) RemoveAll(name string) error            { return f.inner.RemoveAll(name) }
func (f *InjectFS) Rename(oldname, newname string) error   { return f.inner.Rename(oldname, newname) }
func (f *InjectFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }
func (f *InjectFS) SyncDir(name string) error              { return f.inner.SyncDir(name) }

type injectFile struct {
	fs    *InjectFS
	inner File
	name  string
}

func (f *injectFile) Read(p []byte) (int, error)                { return f.inner.Read(p) }
func (f *injectFile) Seek(off int64, whence int) (int64, error) { return f.inner.Seek(off, whence) }
func (f *injectFile) Close() error                              { return f.inner.Close() }

func (f *injectFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	plan := f.fs.plan
	if plan.ENOSPCAfter > 0 && f.fs.written+int64(len(p)) > plan.ENOSPCAfter {
		f.fs.hits++
		f.fs.mu.Unlock()
		return 0, fmt.Errorf("fault: write %s: %w: %w", f.name, ErrInjected, syscall.ENOSPC)
	}
	if plan.WriteFailProb > 0 && f.fs.rng.Chance(plan.WriteFailProb) {
		f.fs.hits++
		f.fs.mu.Unlock()
		return 0, fmt.Errorf("fault: write %s: %w: %w", f.name, ErrInjected, syscall.EIO)
	}
	short := plan.ShortWriteProb > 0 && len(p) > 1 && f.fs.rng.Chance(plan.ShortWriteProb)
	if short {
		f.fs.hits++
	}
	f.fs.mu.Unlock()

	if short {
		n, err := f.inner.Write(p[:len(p)/2])
		f.fs.mu.Lock()
		f.fs.written += int64(n)
		f.fs.mu.Unlock()
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("fault: write %s: %w: short write", f.name, ErrInjected)
	}
	n, err := f.inner.Write(p)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *injectFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	fail := f.fs.plan.FailSyncEvery > 0 && f.fs.syncs%int64(f.fs.plan.FailSyncEvery) == 0
	if !fail && f.fs.plan.SyncFailProb > 0 {
		fail = f.fs.rng.Chance(f.fs.plan.SyncFailProb)
	}
	if fail {
		f.fs.hits++
	}
	f.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("fault: fsync %s: %w: %w", f.name, ErrInjected, syscall.EIO)
	}
	return f.inner.Sync()
}
