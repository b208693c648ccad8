// Package fault is the seam faults are injected through.
//
// FS is the filesystem interface (create/write/sync/rename/remove) that
// internal/store and race/server's journal writers take, and OS its
// passthrough over the real filesystem. The fault models that layer over it
// (and over net.Conn and fleet backends) are package internal/chaos, which
// only tests use; their unit tests are this package's models_test.go.
//
// Every injected error wraps ErrInjected, so downstream metrics can
// distinguish injected faults from organic ones with errors.Is.
package fault

import "errors"

// ErrInjected is the sentinel wrapped by every error a fault model
// manufactures. errors.Is(err, ErrInjected) distinguishes an injected
// fault from an organic one; nothing outside tests should ever branch on
// it for correctness.
var ErrInjected = errors.New("fault: injected")

// Injected reports whether err (or anything it wraps) was manufactured by
// a fault model.
func Injected(err error) bool { return errors.Is(err, ErrInjected) }
