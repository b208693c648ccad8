package fault

import (
	"fmt"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// FSPlan configures an InjectFS. Its triggers are counts, not coin flips,
// so they fire on the same operations regardless of goroutine
// interleaving.
type FSPlan struct {
	// FailSyncEvery makes every Nth File.Sync (counted across all files)
	// fail with an injected EIO. 0 disables.
	FailSyncEvery int
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
	syncs   int64
	written int64
	hits    int64 // faults injected
}

// NewInjectFS wraps inner with the fault schedule described by plan.
func NewInjectFS(inner FS, plan FSPlan) *InjectFS {
	if inner == nil {
		inner = OS{}
	}
	return &InjectFS{inner: inner, plan: plan}
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
	if budget := f.fs.plan.ENOSPCAfter; budget > 0 && f.fs.written+int64(len(p)) > budget {
		f.fs.hits++
		f.fs.mu.Unlock()
		return 0, fmt.Errorf("fault: write %s: %w: %w", f.name, ErrInjected, syscall.ENOSPC)
	}
	f.fs.mu.Unlock()
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
	if fail {
		f.fs.hits++
	}
	f.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("fault: fsync %s: %w: %w", f.name, ErrInjected, syscall.EIO)
	}
	return f.inner.Sync()
}
