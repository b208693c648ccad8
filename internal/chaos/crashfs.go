package chaos

import (
	"fmt"
	"io/fs"
	"os"
	"sync"

	"repro/internal/fault"
)

// ErrPowerCut is returned by every CrashFS operation after the simulated
// power cut. It wraps fault.ErrInjected.
var ErrPowerCut = fmt.Errorf("%w: power cut", fault.ErrInjected)

// CrashFS simulates pulling the plug at an fsync boundary. Writes pass
// through to the real filesystem, but the FS tracks, per file, how many
// bytes were durable at the last successful fsync. Crash (or an armed
// CutAtSync trigger) then truncates every tracked file back to its
// durable prefix — modeling an ordered, prefix-durable disk — optionally
// leaving up to Tear extra bytes to exercise torn-tail recovery. After
// the cut every operation fails with ErrPowerCut.
//
// The model assumes the OS writes back file data in order (no
// reordering across an fsync), which is the same assumption the racelog
// recovery contract is written against; the torn tail covers partial
// last-sector writes.
type CrashFS struct {
	inner fault.FS

	mu       sync.Mutex
	files    map[string]*crashState
	syncs    int64
	cutAt    int64 // crash when syncs reaches this count; 0 = disarmed
	cutAfter bool  // let the triggering fsync complete before cutting
	tear     int   // extra non-durable bytes left behind at the cut
	crashed  bool
}

type crashState struct {
	size   int64 // bytes written through this FS
	synced int64 // bytes durable at last successful fsync
}

// NewCrashFS returns a CrashFS over the real filesystem.
func NewCrashFS() *CrashFS {
	return &CrashFS{inner: fault.OS{}, files: make(map[string]*crashState)}
}

// CutAtSync arms the power cut to fire on the n-th File.Sync call
// (1-based, counted across all files). With after=true the fsync
// completes — its bytes are durable — before the cut; with after=false
// the cut preempts it. tear is the maximum number of non-durable bytes
// left on disk past the durable prefix (a torn tail).
func (c *CrashFS) CutAtSync(n int64, after bool, tear int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cutAt, c.cutAfter, c.tear = n, after, tear
}

// Syncs returns how many File.Sync calls have been observed.
func (c *CrashFS) Syncs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

// Crash fires the power cut immediately: every tracked file is truncated
// back to its durable prefix (+ up to tear bytes), and all subsequent
// operations fail with ErrPowerCut.
func (c *CrashFS) Crash() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashLocked()
}

func (c *CrashFS) crashLocked() error {
	if c.crashed {
		return nil
	}
	c.crashed = true
	var firstErr error
	for path, st := range c.files {
		keep := st.synced
		if extra := st.size - st.synced; extra > 0 && c.tear > 0 {
			t := int64(c.tear)
			if t > extra {
				t = extra
			}
			keep += t
		}
		if keep < st.size {
			if err := c.inner.Truncate(path, keep); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (c *CrashFS) dead() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrPowerCut
	}
	return nil
}

func (c *CrashFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return nil, ErrPowerCut
	}
	c.mu.Unlock()
	inner, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	var st *crashState
	if writable {
		size := int64(0)
		if flag&os.O_TRUNC == 0 {
			if fi, err := c.inner.Stat(name); err == nil {
				size = fi.Size()
			}
		}
		c.mu.Lock()
		st = c.files[name]
		if st == nil {
			// Pre-existing bytes are assumed durable: recovery fsyncs the
			// tail it keeps before appending, and segments earlier than
			// that were sealed + synced when written.
			st = &crashState{size: size, synced: size}
			c.files[name] = st
		}
		c.mu.Unlock()
	}
	return &crashFile{fs: c, inner: inner, name: name, st: st}, nil
}

func (c *CrashFS) Open(name string) (fault.File, error) {
	if err := c.dead(); err != nil {
		return nil, err
	}
	return c.inner.Open(name)
}

func (c *CrashFS) ReadFile(name string) ([]byte, error) {
	if err := c.dead(); err != nil {
		return nil, err
	}
	return c.inner.ReadFile(name)
}

func (c *CrashFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := c.dead(); err != nil {
		return nil, err
	}
	return c.inner.ReadDir(name)
}

func (c *CrashFS) Stat(name string) (os.FileInfo, error) {
	if err := c.dead(); err != nil {
		return nil, err
	}
	return c.inner.Stat(name)
}

func (c *CrashFS) MkdirAll(name string, perm os.FileMode) error {
	if err := c.dead(); err != nil {
		return err
	}
	return c.inner.MkdirAll(name, perm)
}

func (c *CrashFS) Remove(name string) error {
	if err := c.dead(); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.files, name)
	c.mu.Unlock()
	return c.inner.Remove(name)
}

func (c *CrashFS) RemoveAll(name string) error {
	if err := c.dead(); err != nil {
		return err
	}
	return c.inner.RemoveAll(name)
}

func (c *CrashFS) Rename(oldname, newname string) error {
	if err := c.dead(); err != nil {
		return err
	}
	c.mu.Lock()
	if st, ok := c.files[oldname]; ok {
		delete(c.files, oldname)
		c.files[newname] = st
	}
	c.mu.Unlock()
	return c.inner.Rename(oldname, newname)
}

func (c *CrashFS) Truncate(name string, size int64) error {
	if err := c.dead(); err != nil {
		return err
	}
	c.mu.Lock()
	if st, ok := c.files[name]; ok {
		if st.size > size {
			st.size = size
		}
		if st.synced > size {
			st.synced = size
		}
	}
	c.mu.Unlock()
	return c.inner.Truncate(name, size)
}

func (c *CrashFS) SyncDir(name string) error {
	if err := c.dead(); err != nil {
		return err
	}
	return c.inner.SyncDir(name)
}

type crashFile struct {
	fs    *CrashFS
	inner fault.File
	name  string
	st    *crashState // nil for read-only opens
}

func (f *crashFile) Read(p []byte) (int, error) {
	if err := f.fs.dead(); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *crashFile) Seek(off int64, whence int) (int64, error) {
	if err := f.fs.dead(); err != nil {
		return 0, err
	}
	return f.inner.Seek(off, whence)
}

func (f *crashFile) Close() error {
	// Closing is allowed after the cut so recovery code can release
	// handles; the data past the durable prefix is already gone.
	return f.inner.Close()
}

func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.fs.dead(); err != nil {
		return 0, err
	}
	n, err := f.inner.Write(p)
	if f.st != nil && n > 0 {
		f.fs.mu.Lock()
		f.st.size += int64(n)
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *crashFile) Sync() error {
	f.fs.mu.Lock()
	if f.fs.crashed {
		f.fs.mu.Unlock()
		return ErrPowerCut
	}
	f.fs.syncs++
	cut := f.fs.cutAt > 0 && f.fs.syncs >= f.fs.cutAt
	if cut && !f.fs.cutAfter {
		f.fs.crashLocked()
		f.fs.mu.Unlock()
		return ErrPowerCut
	}
	f.fs.mu.Unlock()

	err := f.inner.Sync()
	f.fs.mu.Lock()
	if err == nil && f.st != nil {
		f.st.synced = f.st.size
	}
	if cut {
		f.fs.crashLocked()
		f.fs.mu.Unlock()
		return ErrPowerCut
	}
	f.fs.mu.Unlock()
	return err
}
