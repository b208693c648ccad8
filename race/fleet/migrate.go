package fleet

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs/tracing"
)

// Migration moves a sealed session directory between backend data dirs:
//
//	source: Suspend(id)        — drain the queue, seal the journal, free
//	                             the slot; the dir is now quiescent
//	router: copy dir           — into the target's sessions/ under a
//	                             ".importing-<id>" staging name, fsync
//	                             everything, then rename into place (the
//	                             target's recovery scan ignores dot-dirs,
//	                             so a torn copy is invisible)
//	target: RecoverSession(id) — journal replay brings the engine to the
//	                             exact suspended state
//	router: remove source dir  — the session now has one home
//
// The client's half: its connection errors (or gets a Redirect), it
// re-resumes through the router, and the resume ack tells it the offset the
// journal preserved — by the flush-barrier contract that offset is at least
// its last acked flush, so replaying its retained suffix loses nothing.

// sessionDir is the on-disk home of id under a backend data dir.
func sessionDir(dataDir, id string) string {
	return filepath.Join(dataDir, "sessions", id)
}

// hasSessionDir reports whether id's directory exists under dataDir.
func hasSessionDir(dataDir, id string) bool {
	if dataDir == "" {
		return false
	}
	fi, err := os.Stat(sessionDir(dataDir, id))
	return err == nil && fi.IsDir()
}

// copySessionDir stages a copy of id's directory from srcDir's tree into
// dstDir's tree and renames it into place. Every file is fsynced before the
// rename, so a crash mid-copy leaves either no visible dir or a complete
// one.
func copySessionDir(srcDataDir, dstDataDir, id string) error {
	src := sessionDir(srcDataDir, id)
	final := sessionDir(dstDataDir, id)
	staging := filepath.Join(dstDataDir, "sessions", ".importing-"+id)
	if err := os.RemoveAll(staging); err != nil {
		return err
	}
	if err := copyTree(src, staging); err != nil {
		os.RemoveAll(staging)
		return fmt.Errorf("fleet: copying session %s: %w", id, err)
	}
	if err := os.Rename(staging, final); err != nil {
		os.RemoveAll(staging)
		return err
	}
	return syncDir(filepath.Dir(final))
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFileSync(path, target)
	})
}

func copyFileSync(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// suspendTimed suspends id on b, observing the seal latency of successful
// suspends into the migration-suspend histogram.
func (rt *Router) suspendTimed(ctx context.Context, b Backend, id string) (uint64, error) {
	ssp := rt.span(ctx, "fleet.migrate.suspend")
	ssp.SetAttr("session", id)
	ssp.SetAttr("backend", b.Name())
	t0 := time.Now()
	fed, err := b.Suspend(ctx, id)
	rt.breakerRecord(b.Name(), err)
	if err == nil {
		rt.metrics.migSuspend.ObserveDuration(time.Since(t0))
	}
	ssp.SetError(err)
	ssp.End()
	return fed, err
}

// migrate moves session id from src (whose directory holds it; src may be
// dead) to dst and recovers it there. The source directory is removed only
// after the target has recovered the session, so a failure at any step
// leaves a resumable copy somewhere.
func (rt *Router) migrate(ctx context.Context, id string, srcDataDir string, dst Backend) error {
	msp := rt.span(ctx, "fleet.migrate")
	msp.SetAttr("session", id)
	msp.SetAttr("target", dst.Name())
	if msp != nil {
		ctx = tracing.ContextWith(ctx, msp.Context())
	}
	defer msp.End()
	rt.metrics.migStarted.Inc()
	err := rt.doMigrate(ctx, id, srcDataDir, dst)
	if err != nil {
		msp.SetError(err)
		rt.metrics.migFailed.Inc()
		return err
	}
	rt.metrics.migCompleted.Inc()
	return nil
}

func (rt *Router) doMigrate(ctx context.Context, id string, srcDataDir string, dst Backend) error {
	if srcDataDir == "" || dst.DataDir() == "" {
		return fmt.Errorf("fleet: migrating %s: both backends need data dirs", id)
	}
	if srcDataDir != dst.DataDir() {
		csp := rt.span(ctx, "fleet.migrate.copy")
		csp.SetAttr("session", id)
		t0 := time.Now()
		if err := copySessionDir(srcDataDir, dst.DataDir(), id); err != nil {
			csp.SetError(err)
			csp.End()
			return err
		}
		csp.End()
		rt.metrics.migCopy.ObserveDuration(time.Since(t0))
	}
	rsp := rt.span(ctx, "fleet.migrate.recover")
	rsp.SetAttr("session", id)
	rsp.SetAttr("backend", dst.Name())
	defer rsp.End()
	rctx := ctx
	if rsp != nil {
		rctx = tracing.ContextWith(ctx, rsp.Context())
	}
	t1 := time.Now()
	if err := dst.RecoverSession(rctx, id); err != nil {
		rsp.SetError(err)
		// Leave both copies; the source dir is still authoritative.
		if srcDataDir != dst.DataDir() {
			os.RemoveAll(sessionDir(dst.DataDir(), id))
		}
		return fmt.Errorf("fleet: recovering %s on %s: %w", id, dst.Name(), err)
	}
	rt.metrics.migRecover.ObserveDuration(time.Since(t1))
	if srcDataDir != dst.DataDir() {
		if err := os.RemoveAll(sessionDir(srcDataDir, id)); err != nil {
			return fmt.Errorf("fleet: removing migrated source dir for %s: %w", id, err)
		}
	}
	return nil
}

// MigrateSession explicitly moves a session to the named backend: suspend
// it wherever it lives now (if live anywhere), copy + recover on the
// target. The streaming client, if any, is redirected by its proxy loop
// and re-resumes onto the migrated session.
func (rt *Router) MigrateSession(ctx context.Context, id, to string) error {
	dst, ok := rt.backends[to]
	if !ok {
		return fmt.Errorf("fleet: unknown backend %q", to)
	}
	if !rt.health.reachable(to) {
		return fmt.Errorf("fleet: target backend %s is down", to)
	}
	unlock := rt.lockSession(id)
	defer unlock()

	// Find the live holder by suspending: success identifies the holder
	// and seals the journal in one step.
	var srcDataDir string
	for _, name := range rt.ring.sequence(id) {
		b := rt.backends[name]
		if name == to || !rt.health.reachable(name) || b.DataDir() == "" {
			continue
		}
		if _, err := rt.suspendTimed(ctx, b, id); err != nil {
			if isUnreachable(err) {
				rt.health.markDown(name)
			}
			continue
		}
		srcDataDir = b.DataDir()
		break
	}
	if srcDataDir == "" {
		// Not live anywhere (crashed backend, or already suspended):
		// fall back to locating the directory on disk.
		for _, name := range rt.ring.sequence(id) {
			b := rt.backends[name]
			if name != to && hasSessionDir(b.DataDir(), id) {
				srcDataDir = b.DataDir()
				break
			}
		}
	}
	if srcDataDir == "" {
		if hasSessionDir(dst.DataDir(), id) {
			// Already home: just make sure it's loaded.
			if sess, _, err := dst.Resume(ctx, id); err == nil {
				sess.Release()
				return nil
			}
			return dst.RecoverSession(ctx, id)
		}
		return fmt.Errorf("fleet: session %s not found on any backend", id)
	}
	return rt.migrate(ctx, id, srcDataDir, dst)
}
