// Command racechaos is the deterministic fault-injection harness: it boots
// a two-backend raced fleet in-process (real TCP listeners, real journals),
// turns on a seed-driven fault schedule at one or more of the three seams —
// disk (internal/fault.InjectFS under the backends' journals), net
// (internal/fault.Conn corrupting, dropping, and delaying the router's
// client connections), and fleet (internal/fault.Gate flapping one backend
// up and down) — and streams full 15-cell analysis sessions through the
// chaos. The contract it enforces is the one the whole robustness stack
// exists for:
//
//	every session either finishes with a report byte-identical to
//	uninterrupted in-process batch Analyze, or fails loudly with a
//	classified (typed) error. Nothing hangs, nothing corrupts silently,
//	nothing fails with an unclassifiable shrug.
//
// No fault decision reads the clock: faults land on counted fsyncs, bytes
// and backend calls, and the router probes only when the harness steps it
// (Router.Probe, at every acknowledged flush and every session's end). The
// same seed replays the same schedule on any machine, so a failure here is
// a deterministic repro, not a flake, and two -v runs of one seed print the
// same lines. Each schedule is drawn within what the run is sure to do, so
// it always injects a fault; one that injected none would prove nothing,
// and counts as a failure. Exit status: 0 when every schedule met the
// contract, 1 otherwise.
//
//	racechaos                         # all three schedules, seed 1
//	racechaos -schedule net -seed 7 -sessions 8
//	racechaos -schedule disk -events 80000 -v
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/race"
	"repro/race/fleet"
	"repro/race/server"
)

// A session is fed in batches of chunk events and flushed after every
// flushEvery batches.
const chunk, flushEvery = 1024, 8

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "fault-schedule seed (same seed, same chaos)")
		schedule = flag.String("schedule", "all", "fault schedule: disk, net, flap, or all")
		sessions = flag.Int("sessions", 6, "sessions to stream per schedule")
		events   = flag.Int("events", 30000, "events per session")
		verbose  = flag.Bool("v", false, "log each session's verdict and the faults injected during it")
	)
	flag.Parse()
	if *sessions < 1 {
		fatalf("-sessions %d: want at least 1", *sessions)
	}
	schedules := []string{"disk", "net", "flap"}
	if *schedule != "all" {
		if !slices.Contains(schedules, *schedule) {
			fatalf("unknown schedule %q: want disk, net, flap, or all", *schedule)
		}
		schedules = []string{*schedule}
	}

	names := race.Detectors()
	if len(names) != 15 {
		fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}
	jobs, err := plan(*sessions, *events, names)
	if err != nil {
		fatalf("%v", err)
	}
	failed := false
	for _, name := range schedules {
		ok, err := runSchedule(name, *seed, jobs, names, *verbose)
		if err != nil {
			fatalf("schedule %s: %v", name, err)
		}
		if !ok {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("racechaos: all schedules met the contract")
}

// job is one session's trace and the report it must end with.
type job struct {
	prog string
	tr   *race.Trace
	want []byte
}

// plan generates the sessions every schedule streams, with their
// uninterrupted in-process truth.
func plan(sessions, events int, names []string) ([]job, error) {
	programs := []string{"avrora", "xalan", "h2", "tomcat", "jython", "lusearch"}
	jobs := make([]job, sessions)
	for i := range jobs {
		prog, _ := workload.ProgramByName(programs[i%len(programs)])
		tr := prog.Generate(events, int64(3+i))
		want, err := reference(tr, names)
		if err != nil {
			return nil, fmt.Errorf("reference analysis: %w", err)
		}
		jobs[i] = job{prog.Name, tr, want}
	}
	return jobs, nil
}

// load counts what a fault-free run of jobs is sure to do: the barriers it
// steps the router's probes at (one per acknowledged flush, one per session
// end; each is also at least one journal fsync) and the bytes its events
// take, in a journal or on the wire. A schedule drawn within them fires
// inside the run.
func load(jobs []job) (barriers int, bytes int64) {
	for _, j := range jobs {
		barriers += 1 + (j.tr.Len()+chunk-1)/chunk/flushEvery
		bytes += int64(j.tr.Len()) * trace.RecordSize
	}
	return barriers, bytes
}

// chaosFleet is one booted fleet plus the fault hooks its schedule armed.
type chaosFleet struct {
	router  *fleet.Router
	addr    string // router wire address
	cleanup []func()

	// injected returns how many faults the schedule has fired so far: the
	// counter of its fault.InjectFS, fault.ConnFaults or fault.Gate.
	injected func() int64
}

func (c *chaosFleet) close() {
	for i := len(c.cleanup) - 1; i >= 0; i-- {
		c.cleanup[i]()
	}
}

// buildFleet boots two durable in-process backends behind a router with the
// named fault schedule armed, drawn within the operations jobs will make.
// The router never probes on its own (its interval outlasts any run): the
// harness steps it at every barrier, so a backend a failed call marked down
// earns its way back in two barriers' probes (eight while flapping) on every
// machine alike.
func buildFleet(schedule string, seed uint64, jobs []job) (*chaosFleet, error) {
	c := &chaosFleet{}
	tmp, err := os.MkdirTemp("", "racechaos-")
	if err != nil {
		return nil, err
	}
	c.cleanup = append(c.cleanup, func() { os.RemoveAll(tmp) })

	cfg := func(sub string, fsys fault.FS) server.Config {
		dir := tmp + "/" + sub
		if err := os.MkdirAll(dir, 0o777); err != nil {
			fatalf("%v", err)
		}
		return server.Config{DataDir: dir, FS: fsys, IdleTimeout: -1, IOTimeout: 5 * time.Second}
	}

	barriers, bytes := load(jobs)
	var fsys fault.FS = fault.OS{}
	if schedule == "disk" {
		// The fleet's storage goes bad: one plan under both backends'
		// journals fails every Nth fsync, for an N no larger than the
		// fsyncs the run makes, and fills the disk somewhere in the second
		// half of the bytes its events take.
		rng := fault.NewRand(seed)
		injectFS := fault.NewInjectFS(fault.OS{}, fault.FSPlan{
			FailSyncEvery: 1 + rng.Intn(barriers),
			ENOSPCAfter:   bytes/2 + int64(rng.Intn(int(bytes/2)+1)),
		})
		fsys, c.injected = injectFS, injectFS.Injected
	}
	srv1 := server.New(cfg("b1", fsys))
	srv2 := server.New(cfg("b2", fsys))
	c.cleanup = append(c.cleanup, func() { srv1.Close() }, func() { srv2.Close() })

	b1 := fleet.NewLocal("b1", srv1)
	b2 := fleet.NewLocal("b2", srv2)

	if schedule == "flap" {
		// One backend flaps: up/down windows counted in the calls that
		// reach it sever its wire ops (and fail its probes) while down —
		// sessions must ride the failovers. Every barrier probes it, so
		// the first up window, shorter than the run's barriers, ends
		// inside the run.
		gate := fault.NewGate(fault.GatePlan{Seed: seed, MeanUp: max(1, barriers/2), MeanDown: max(1, barriers/8)})
		b1.SetGate(func(op string) error {
			switch op {
			case "open", "resume", "feed", "flush", "close", "healthz":
				return gate.Err()
			}
			return nil
		})
		c.injected = gate.Faults
	}

	// Session ids pick backends, so they come from the seed too: which
	// sessions land on the backend a schedule breaks must replay with it.
	var idMu sync.Mutex
	ids := fault.NewRand(seed ^ 0x5e5510) // its own stream, apart from the fault plans'
	opts := fleet.Options{
		ProbeInterval: time.Hour, // probes are stepped: Router.Probe
		IOTimeout:     5 * time.Second,
		NewSessionID: func() string {
			idMu.Lock()
			defer idMu.Unlock()
			return fmt.Sprintf("f%012x", ids.Uint64()>>16)
		},
	}
	if schedule == "net" {
		// The client↔router wire takes the beating: latency, drops, and
		// bit flips. Flips must surface as CRC-caught corrupt frames (never
		// as silently wrong data); drops as reconnect+resume. Each
		// direction of a connection takes one fault within three quarters
		// of a mean session's bytes, so the largest session is sure to.
		faults := fault.NewConnFaults(fault.ConnPlan{
			Seed:       seed,
			LatencyMax: 200 * time.Microsecond,
			FaultAfter: bytes / int64(2*len(jobs)),
			DropProb:   0.6,
			FirstByte:  1 << 14, // let every handshake through
		})
		opts.WrapConn = func(conn net.Conn) net.Conn { return faults.Wrap(conn) }
		c.injected = faults.Faults
	}

	rt, err := fleet.New([]fleet.Backend{b1, b2}, opts)
	if err != nil {
		return nil, err
	}
	c.router = rt
	c.cleanup = append(c.cleanup, rt.Close)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.addr = lis.Addr().String()
	c.cleanup = append(c.cleanup, func() { lis.Close() })
	go rt.ServeTCP(lis)
	return c, nil
}

// reference computes the uninterrupted in-process truth for tr.
func reference(tr *race.Trace, names []string) ([]byte, error) {
	eng, err := race.NewEngine(race.WithAnalysisNames(names...))
	if err != nil {
		return nil, err
	}
	if err := eng.FeedTrace(tr); err != nil {
		return nil, err
	}
	rep, err := eng.Close()
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// classify names the typed class of a session failure — the code a server
// sent, else the label of the error's row in the service's error table — or
// "" when the error is unclassified: the contract violation the harness
// exists to catch.
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

// runSchedule streams jobs through one armed schedule and scores them
// against the contract: every session ends byte-identical or loudly
// classified, and the schedule injected at least one fault; a mismatch
// (silent corruption), an unclassified error or a vacuous schedule is a
// violation.
func runSchedule(schedule string, seed uint64, jobs []job, names []string, verbose bool) (bool, error) {
	c, err := buildFleet(schedule, seed, jobs)
	if err != nil {
		return false, err
	}
	defer c.close()

	ok, completed, failedLoud := true, 0, 0
	for i, j := range jobs {
		before := c.injected()
		verdict := streamSession(c, j.tr, names, j.want)
		c.router.Probe(context.Background()) // the session's end is a barrier
		violation := verdict == "unclassified" || verdict == "mismatch"
		switch {
		case verdict == "ok":
			completed++
		case violation:
			ok = false
		default:
			failedLoud++
		}
		if verbose || violation {
			fmt.Printf("racechaos: %s session %d (%s, %d events): %s, %d faults\n",
				schedule, i, j.prog, j.tr.Len(), verdict, c.injected()-before)
		}
	}

	injected := c.injected()
	fmt.Printf("racechaos: schedule=%s seed=%d sessions=%d ok=%d failed-classified=%d injected-faults=%d\n",
		schedule, seed, len(jobs), completed, failedLoud, injected)
	if injected == 0 {
		fmt.Fprintf(os.Stderr, "racechaos: schedule %s injected no faults — the run proved nothing\n", schedule)
		ok = false
	}
	return ok, nil
}

// streamSession pushes one trace through a reliable session, stepping the
// router's probes at every acknowledged flush, and returns "ok"
// (byte-identical report), a classified failure name, "mismatch", or
// "unclassified".
func streamSession(c *chaosFleet, tr *race.Trace, names []string, want []byte) string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sess, err := server.OpenReliable(ctx, c.addr, server.SessionConfig{Analyses: names},
		server.WithRetry(server.RetryPolicy{MaxAttempts: 12, BaseDelay: 10 * time.Millisecond, MaxDelay: 250 * time.Millisecond}))
	if err != nil {
		return failureVerdict(err)
	}
	for off := 0; off < len(tr.Events); off += chunk {
		end := min(off+chunk, len(tr.Events))
		if err := sess.FeedBatch(tr.Events[off:end]); err != nil {
			return failureVerdict(err)
		}
		if off/chunk%flushEvery == flushEvery-1 {
			if err := sess.Flush(); err != nil {
				return failureVerdict(err)
			}
			c.router.Probe(ctx)
		}
	}
	got, err := sess.CloseJSON()
	if err != nil {
		return failureVerdict(err)
	}
	if !bytes.Equal(got, want) {
		return "mismatch" // silent corruption: the worst possible outcome
	}
	return "ok"
}

func failureVerdict(err error) string {
	if class := classify(err); class != "" {
		return "failed:" + class
	}
	fmt.Fprintf(os.Stderr, "racechaos: UNCLASSIFIED error: %v\n", err)
	return "unclassified"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racechaos: "+format+"\n", args...)
	os.Exit(1)
}
