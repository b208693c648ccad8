package fault

import (
	"io/fs"
	"os"
	"path/filepath"
)

// File is the slice of *os.File the store and journal writers need.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Close() error
}

// FS abstracts every filesystem operation the racelog store and the
// server's journal/state-file writers perform, so faults can be injected
// under real code paths instead of test doubles. OS is the passthrough
// implementation; chaos.InjectFS and chaos.CrashFS layer faults on top of
// another FS.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadFile reads the whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat stats a path.
	Stat(name string) (os.FileInfo, error)
	// MkdirAll creates a directory chain.
	MkdirAll(name string, perm os.FileMode) error
	// Remove removes a file or empty directory.
	Remove(name string) error
	// RemoveAll removes a tree.
	RemoveAll(name string) error
	// Rename atomically renames old to new.
	Rename(oldname, newname string) error
	// Truncate truncates name to size bytes.
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making renames and creates in
	// it durable.
	SyncDir(name string) error
}

// OS is the passthrough FS over the real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Open(name string) (File, error)             { return os.Open(name) }
func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (OS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (OS) Remove(name string) error               { return os.Remove(name) }
func (OS) RemoveAll(name string) error            { return os.RemoveAll(name) }
func (OS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
