package fleet

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

var chaosSeeds = flag.Int("chaos.seeds", 3, "TestChaos runs seeds 1..N of every fault schedule")

const (
	// chaosScaleDiv divides each chaos program's paper event count: the
	// four sessions stream 116,709, 52,524, 316,691 and 6,686 events.
	chaosScaleDiv = 12000
	// A session is fed in batches of chaosChunk events and flushed after
	// every chaosFlushEvery batches.
	chaosChunk, chaosFlushEvery = 1024, 8
)

// TestChaos streams full 15-cell sessions through a two-backend fleet (real
// TCP listeners, real journals) under each seeded fault schedule — disk,
// net and flap, one per seam of package chaos — and holds every session to
// the contract: a report byte-identical to uninterrupted in-process batch
// analysis, or a loud, classified (typed) error. A mismatch, an
// unclassified error, or a schedule that injected no fault is a violation.
// No fault decision reads the clock, and the router probes only when the
// harness steps it, so a seed replays exactly on any machine: a failing
// subtest prints its go test line.
func TestChaos(t *testing.T) {
	names := race.Detectors()
	if len(names) != 15 {
		t.Fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}
	var jobs []chaosJob
	for i, name := range []string{"avrora", "xalan", "h2", "tomcat"} {
		prog, _ := workload.ProgramByName(name)
		tr := prog.Generate(chaosScaleDiv, int64(3+i))
		jobs = append(jobs, chaosJob{name, tr, batchReport(t, tr, names)})
	}
	schedules := []string{"disk", "net", "flap"}
	for _, schedule := range schedules {
		for seed := uint64(1); seed <= uint64(*chaosSeeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", schedule, seed), func(t *testing.T) {
				log, violations := bootChaos(t, schedule, seed, jobs).score(schedule, seed, jobs, names)
				t.Log(strings.Join(log, "\n"))
				for _, v := range violations {
					t.Error(v)
				}
				if t.Failed() {
					t.Logf("replay: go test ./race/fleet -run '^TestChaos/%s/seed=%d$' -v", schedule, seed)
				}
			})
		}
	}

	t.Run("determinism", func(t *testing.T) {
		for _, schedule := range schedules {
			var logs [2][]string
			for i := range logs {
				logs[i], _ = bootChaos(t, schedule, 1, jobs).score(schedule, 1, jobs, names)
			}
			if a, b := strings.Join(logs[0], "\n"), strings.Join(logs[1], "\n"); a != b {
				t.Errorf("two runs of %s seed 1 logged different verdicts:\n%s\n---\n%s", schedule, a, b)
			}
		}
	})

	// The harness must notice what it exists to notice: on the smallest
	// job, through a fleet with no schedule armed.
	tomcat := jobs[3]
	t.Run("self-check/mismatch", func(t *testing.T) {
		flipped := tomcat
		flipped.want = bytes.Clone(tomcat.want)
		flipped.want[len(flipped.want)/2] ^= 1
		_, violations := bootChaos(t, "unarmed", 1, nil).score("unarmed", 1, []chaosJob{flipped}, names)
		if len(violations) != 2 || !strings.HasPrefix(violations[0], "session 0 (tomcat): mismatch") {
			t.Errorf("a report one byte off scored %q, want a mismatch", violations)
		}
	})
	t.Run("self-check/vacuous", func(t *testing.T) {
		_, violations := bootChaos(t, "unarmed", 1, nil).score("unarmed", 1, []chaosJob{tomcat}, names)
		if len(violations) != 1 || !strings.Contains(violations[0], "injected no faults") {
			t.Errorf("the true report through an unarmed fleet scored %q, want only vacuity", violations)
		}
	})
	t.Run("self-check/unclassified", func(t *testing.T) {
		untyped := errors.New("x")
		if class := classify(untyped); class != "" {
			t.Errorf("classify(%v) = %q, want unclassified", untyped, class)
		}
		if v, bad := verdict(nil, untyped, tomcat.want); v != "unclassified" || !bad {
			t.Errorf("an untyped error is verdict %q (violation %v), want an unclassified violation", v, bad)
		}
	})
}

// chaosJob is one session's trace and the report it must end with.
type chaosJob struct {
	prog string
	tr   *race.Trace
	want []byte
}

// chaosFleet is one booted fleet and the fault counter of its schedule.
type chaosFleet struct {
	rt       *Router
	addr     string       // router wire address
	injected func() int64 // faults the schedule has fired so far
}

// bootChaos boots two durable local backends behind a router with the named
// fault schedule armed ("unarmed" arms none), drawn within what a fault-free
// run of jobs is sure to do: the barriers it steps the router's probes at
// (one per acknowledged flush, one per session end; each is also at least
// one journal fsync) and the bytes its events take, in a journal or on the
// wire. The router never probes on its own: a backend a failed call marked
// down earns its way back in two barriers' probes (eight while flapping).
func bootChaos(t *testing.T, schedule string, seed uint64, jobs []chaosJob) *chaosFleet {
	barriers, size := 0, int64(0)
	for _, j := range jobs {
		barriers += 1 + (j.tr.Len()+chaosChunk-1)/chaosChunk/chaosFlushEvery
		size += int64(j.tr.Len()) * trace.RecordSize
	}
	c := &chaosFleet{injected: func() int64 { return 0 }}
	cfg := server.Config{IOTimeout: 5 * time.Second}
	// Session ids pick backends, so they come from the seed too: which
	// sessions land on the backend a schedule breaks must replay with it.
	var idMu sync.Mutex
	ids := chaos.NewRand(seed ^ 0x5e5510) // its own stream, apart from the fault plans'
	opts := Options{IOTimeout: 5 * time.Second, NewSessionID: func() string {
		idMu.Lock()
		defer idMu.Unlock()
		return fmt.Sprintf("f%012x", ids.Uint64()>>16)
	}}
	switch schedule {
	case "disk":
		// One plan under both backends' journals fails every Nth fsync, for
		// an N no larger than the fsyncs the run makes, and fills the disk
		// somewhere in the second half of the bytes its events take.
		rng := chaos.NewRand(seed)
		fsys := chaos.NewInjectFS(fault.OS{}, chaos.FSPlan{
			FailSyncEvery: 1 + rng.Intn(barriers),
			ENOSPCAfter:   size/2 + int64(rng.Intn(int(size/2)+1)),
		})
		cfg.FS, c.injected = fsys, fsys.Injected
	case "net":
		// The client↔router wire takes latency, drops and bit flips: flips
		// must surface as CRC-caught corrupt frames, drops as
		// reconnect+resume. Each direction of a connection takes one fault
		// within three quarters of a mean session's bytes, so the largest
		// session is sure to.
		faults := chaos.NewConnFaults(chaos.ConnPlan{
			Seed:       seed,
			LatencyMax: 200 * time.Microsecond,
			FaultAfter: size / int64(2*len(jobs)),
			DropProb:   0.6,
			FirstByte:  1 << 14, // let every handshake through
		})
		opts.WrapConn = func(conn net.Conn) net.Conn { return faults.Wrap(conn) }
		c.injected = faults.Faults
	}
	var locals []*Local
	c.rt, locals, _, c.addr = fleetOf(t, 2, cfg, opts)
	if schedule == "flap" {
		// One backend flaps: while down, its wire ops and probes fail, and
		// sessions must ride the failovers. Every barrier probes it, so the
		// first up window, shorter than the run's barriers, ends inside it.
		gate := chaos.NewGate(chaos.GatePlan{Seed: seed, MeanUp: max(1, barriers/2), MeanDown: max(1, barriers/8)})
		locals[0].SetGate(func(op string) error {
			switch op {
			case "open", "resume", "feed", "flush", "close", "healthz":
				return gate.Err()
			}
			return nil
		})
		c.injected = gate.Faults
	}
	return c
}

// score streams jobs through c one session at a time and holds each to the
// contract. It returns the verdict log, a line per session and a summary
// (the same lines on every run of one seed), and the violations.
func (c *chaosFleet) score(schedule string, seed uint64, jobs []chaosJob, names []string) (log, violations []string) {
	completed, failedLoud := 0, 0
	for i, j := range jobs {
		before := c.injected()
		got, err := c.stream(j.tr, names)
		c.rt.Probe(context.Background()) // the session's end is a barrier
		v, bad := verdict(got, err, j.want)
		switch {
		case bad:
			violations = append(violations, fmt.Sprintf("session %d (%s): %s (error: %v)", i, j.prog, v, err))
		case v == "ok":
			completed++
		default:
			failedLoud++
		}
		log = append(log, fmt.Sprintf("%s session %d (%s, %d events): %s, %d faults",
			schedule, i, j.prog, j.tr.Len(), v, c.injected()-before))
	}
	injected := c.injected()
	log = append(log, fmt.Sprintf("schedule=%s seed=%d sessions=%d ok=%d failed-classified=%d injected-faults=%d",
		schedule, seed, len(jobs), completed, failedLoud, injected))
	if injected == 0 {
		violations = append(violations, fmt.Sprintf("schedule %s injected no faults: the run proved nothing", schedule))
	}
	return log, violations
}

// stream pushes one trace through a reliable session, stepping the router's
// probes at every acknowledged flush, and returns the session's report.
func (c *chaosFleet) stream(tr *race.Trace, names []string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sess, err := server.OpenReliable(ctx, c.addr, server.SessionConfig{Analyses: names},
		server.WithRetry(server.RetryPolicy{MaxAttempts: 12, BaseDelay: 10 * time.Millisecond, MaxDelay: 250 * time.Millisecond}))
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(tr.Events); off += chaosChunk {
		if err := sess.FeedBatch(tr.Events[off:min(off+chaosChunk, len(tr.Events))]); err != nil {
			return nil, err
		}
		if off/chaosChunk%chaosFlushEvery == chaosFlushEvery-1 {
			if err := sess.Flush(); err != nil {
				return nil, err
			}
			c.rt.Probe(ctx)
		}
	}
	return sess.CloseJSON()
}

// verdict scores how a session ended: "ok" for a report byte-identical to
// want, "failed:<class>" for an error classify names, else one of the two
// violations, "unclassified" or "mismatch".
func verdict(got []byte, err error, want []byte) (v string, violation bool) {
	switch {
	case err != nil && classify(err) != "":
		return "failed:" + classify(err), false
	case err != nil:
		return "unclassified", true
	case !bytes.Equal(got, want):
		return "mismatch", true // silent corruption: the worst possible outcome
	}
	return "ok", false
}

// classify names the typed class of a session failure — the code a server
// sent, else the label of its row in the service's error table — or "".
func classify(err error) string {
	if code := server.RemoteErrorCode(err); code != "" {
		return "code:" + string(code)
	}
	if label := server.Classify(err).Label; label != "" {
		return label
	}
	if fault.Injected(err) {
		return "injected"
	}
	return ""
}
