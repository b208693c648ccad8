package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/workload"
	"repro/race"
)

// TestDiskFaultDegradesWithoutCrashing is the degradation-policy
// acceptance: an injected ENOSPC kills one session's journal, and the
// server — instead of crashing or silently corrupting — fails that session
// with the typed ErrDiskFault, quarantines its directory so a restart can
// never resurrect it, flips /healthz to degraded WITHOUT failing the
// probe, and keeps serving everything that doesn't need the sick disk.
func TestDiskFaultDegradesWithoutCrashing(t *testing.T) {
	dir := t.TempDir()
	// Let session setup and a small healthy session through, then fail
	// every write once the victim's journal pushes past the budget.
	fsys := chaos.NewInjectFS(fault.OS{}, chaos.FSPlan{ENOSPCAfter: 256 << 10})
	s := New(Config{DataDir: dir, FS: fsys, IdleTimeout: -1})
	defer s.Close()

	// A session that finishes before the disk fills: its report must stay
	// servable afterwards.
	healthy, err := s.OpenSession(SessionConfig{Analyses: []string{"FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	tr := writeWriteRace()
	if err := healthy.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	if _, err := healthy.Close(); err != nil {
		t.Fatal(err)
	}

	// The victim journals until the injected ENOSPC hits.
	victim, err := s.OpenSession(SessionConfig{Analyses: []string{"FTO-HB"}})
	if err != nil {
		t.Fatal(err)
	}
	victimID := victim.ID
	p, _ := workload.ProgramByName("avrora")
	big := p.Generate(60000, 3)
	ferr := victim.Feed(append([]race.Event(nil), big.Events...))
	if ferr == nil {
		ferr = victim.Flush()
	}
	if !errors.Is(ferr, ErrDiskFault) {
		t.Fatalf("victim error = %v, want ErrDiskFault", ferr)
	}
	if _, err := victim.Close(); !errors.Is(err, ErrDiskFault) {
		t.Fatalf("victim Close = %v, want ErrDiskFault", err)
	}

	// Teardown, and with it the quarantine move, is done once Close returns.
	if got := s.QuarantinedSessions(); got != 1 {
		t.Fatalf("QuarantinedSessions = %d, want 1", got)
	}
	if !s.Degraded() {
		t.Fatal("server not degraded after an injected disk fault")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", victimID)); err != nil {
		t.Fatalf("quarantined session dir missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", victimID)); !os.IsNotExist(err) {
		t.Fatalf("victim dir still under sessions/ (err=%v); a restart would resurrect it", err)
	}

	// Degraded is a warning, not an outage: /healthz stays 200 and says so,
	// and the healthy session's report is still served.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d while degraded, want 200 (degraded must not fail the probe)", resp.StatusCode)
	}
	var hz struct {
		OK          bool   `json:"ok"`
		Degraded    bool   `json:"degraded"`
		Quarantined uint64 `json:"quarantined_sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || !hz.Degraded || hz.Quarantined != 1 {
		t.Fatalf("healthz = %+v, want ok+degraded with 1 quarantined session", hz)
	}
	rr, err := http.Get(ts.URL + "/sessions/" + healthy.ID + "/races")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("finished session's report gone while degraded: status %d", rr.StatusCode)
	}

	// The provenance split: every fault this test provoked was injected.
	if inj := s.metrics.ioFaultsInjected.Value(); inj == 0 {
		t.Error("no injected I/O faults counted")
	}
	if org := s.metrics.ioFaultsOrganic.Value(); org != 0 {
		t.Errorf("%d organic I/O faults counted; injected faults misattributed", org)
	}
}

// syncFailingFS fails every File.Sync of a file opened while armed.
type syncFailingFS struct {
	fault.OS
	faulty *chaos.InjectFS
	armed  atomic.Bool
}

func (f *syncFailingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	if f.armed.Load() {
		return f.faulty.OpenFile(name, flag, perm)
	}
	return f.OS.OpenFile(name, flag, perm)
}

// TestFailedDurableOpenIsADiskFault: an open whose journal or metadata
// cannot be made durable answers disk_fault, not internal, and removes the
// directory it started, so the same requested id opens once the disk
// recovers and no boot finds a leftover.
func TestFailedDurableOpenIsADiskFault(t *testing.T) {
	dir := t.TempDir()
	fsys := &syncFailingFS{faulty: chaos.NewInjectFS(fault.OS{}, chaos.FSPlan{FailSyncEvery: 1})}
	fsys.armed.Store(true)
	s := New(Config{DataDir: dir, FS: fsys, IdleTimeout: -1})
	defer s.Close()
	cfg := SessionConfig{Analyses: []string{"FTO-HB"}}
	_, err := s.OpenSessionWithID("tenant-1", cfg)
	if c := Classify(err); err == nil || c.Label != "disk_fault" {
		t.Errorf("open under failing fsyncs = %v, classified %q; want disk_fault", err, c.Label)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "tenant-1")); !os.IsNotExist(err) {
		t.Errorf("the failed open left its directory behind (stat: %v)", err)
	}
	fsys.armed.Store(false)
	sess, err := s.OpenSessionWithID("tenant-1", cfg)
	if err != nil {
		t.Fatalf("open of the same id after the fault cleared: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// unreadableFS fails every read-only Open once armed: a session's journal
// still takes appends and syncs, but cannot be read back.
type unreadableFS struct {
	fault.OS
	armed atomic.Bool
}

func (f *unreadableFS) Open(name string) (fault.File, error) {
	if f.armed.Load() {
		return nil, fmt.Errorf("open %s: %w", name, syscall.EIO)
	}
	return f.OS.Open(name)
}

// TestUnreadableJournalFailsVindicationAsDiskFault: a vindicating durable
// session reads its journal back at close; a journal it cannot read fails
// the session with ErrDiskFault, which quarantines the session directory
// and degrades the server like any other disk fault.
func TestUnreadableJournalFailsVindicationAsDiskFault(t *testing.T) {
	dir := t.TempDir()
	fsys := &unreadableFS{}
	s := New(Config{DataDir: dir, FS: fsys, IdleTimeout: -1})
	defer s.Close()
	sess, err := s.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}, Vindicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(append([]race.Event(nil), writeWriteRace().Events...)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	fsys.armed.Store(true)
	if rep, err := sess.Close(); rep != nil || !errors.Is(err, ErrDiskFault) {
		t.Fatalf("Close = %v, %v; want ErrDiskFault", rep, err)
	}
	if !s.Degraded() {
		t.Error("server not degraded after the journal could not be read")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", sess.ID)); err != nil {
		t.Errorf("quarantined session dir missing: %v", err)
	}
}
