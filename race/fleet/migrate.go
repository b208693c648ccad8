package fleet

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/tracing"
	"repro/race/server"
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
	return fault.OS{}.SyncDir(filepath.Dir(final))
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

// suspendTimed suspends id on b, observing the seal latency of successful
// suspends into the migration-suspend histogram and feeding b's circuit
// breaker (an open circuit refuses the call).
func (rt *Router) suspendTimed(ctx context.Context, b Backend, id string) (uint64, error) {
	if !rt.breakerAllow(b.Name()) {
		return 0, fmt.Errorf("%w: %s", ErrCircuitOpen, b.Name())
	}
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
func (rt *Router) migrate(ctx context.Context, id string, srcDataDir string, dst Backend) (err error) {
	msp := rt.span(ctx, "fleet.migrate")
	msp.SetAttr("session", id)
	msp.SetAttr("target", dst.Name())
	if msp != nil {
		ctx = tracing.ContextWith(ctx, msp.Context())
	}
	rt.metrics.migStarted.Inc()
	defer func() {
		if err != nil {
			msp.SetError(err)
			rt.metrics.migFailed.Inc()
		} else {
			rt.metrics.migCompleted.Inc()
		}
		msp.End()
	}()
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
	err = dst.RecoverSession(rctx, id)
	rt.breakerRecord(dst.Name(), err)
	if err != nil {
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

// bring makes target the home of session id, from whatever state the
// session is in — the one homecoming, for a client's resume and an
// operator's migrate call alike. It seals the session wherever it is live
// (a backend answering unknown-session has nothing to seal: the session is
// sealed already, or was never there), finds its directory, and migrates it:
// a directory already under target is recovered in place, which counts as a
// migration with nothing to copy. The caller holds the session's lock.
func (rt *Router) bring(ctx context.Context, id string, target Backend) error {
	// The home is asked first: if it cannot be called (down, circuit open),
	// nothing has been touched yet.
	order := []string{target.Name()}
	for _, name := range rt.ring.sequence(id) {
		if name != target.Name() {
			order = append(order, name)
		}
	}
	for i, name := range order {
		if !rt.health.reachable(name) {
			continue
		}
		_, err := rt.suspendTimed(ctx, rt.backends[name], id)
		if err == nil {
			break // live in one place at most
		}
		switch {
		case isUnreachable(err):
			if i == 0 {
				return err
			}
			rt.health.markDown(name) // its directory may still be there to find
		case isUnknownSession(err):
		default:
			return fmt.Errorf("fleet: suspending %s on %s: %w", id, name, err)
		}
	}
	for _, name := range order {
		if dir := rt.backends[name].DataDir(); hasSessionDir(dir, id) {
			return rt.migrate(ctx, id, dir, target)
		}
	}
	return fmt.Errorf("%w: %s", server.ErrUnknown, id)
}

// MigrateSession explicitly moves a session to the named backend. The
// streaming client, if any, is redirected by its proxy loop and re-resumes
// onto the migrated session.
func (rt *Router) MigrateSession(ctx context.Context, id, to string) error {
	dst, ok := rt.backends[to]
	if !ok {
		return fmt.Errorf("fleet: unknown backend %q", to)
	}
	if !rt.health.reachable(to) {
		return fmt.Errorf("%w: target %s", ErrBackendDown, to)
	}
	unlock := rt.lockSession(id)
	defer unlock()
	return rt.bring(ctx, id, dst)
}
