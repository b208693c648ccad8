// Command racechaos is the deterministic fault-injection harness: it boots
// a two-backend raced fleet in-process (real TCP listeners, real journals),
// turns on a seed-driven fault schedule at one or more of the three seams —
// disk (internal/fault.InjectFS under one backend's journals), net
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
// The same seed replays the same schedule, so a failure here is a
// deterministic repro, not a flake. Exit status: 0 when every session met
// the contract AND the schedule actually injected at least -min-faults
// faults (a schedule that injects nothing is vacuously green and exits 2);
// 1 on any contract violation.
//
//	racechaos                         # all three schedules, seed 1
//	racechaos -schedule net -seed 7 -sessions 8
//	racechaos -schedule disk -events 80000 -min-faults 5 -v
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/workload"
	"repro/race"
	"repro/race/fleet"
	"repro/race/server"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "fault-schedule seed (same seed, same chaos)")
		schedule  = flag.String("schedule", "all", "fault schedule: disk, net, flap, or all")
		sessions  = flag.Int("sessions", 6, "sessions to stream per schedule")
		events    = flag.Int("events", 30000, "events per session")
		minFaults = flag.Int("min-faults", 1, "minimum injected faults per schedule (guards against a vacuous run)")
		verbose   = flag.Bool("v", false, "log each session's verdict")
	)
	flag.Parse()

	names := race.Detectors()
	if len(names) != 15 {
		fatalf("registry has %d analyses, want the paper's 15 Table 1 cells", len(names))
	}

	schedules := []string{"disk", "net", "flap"}
	if *schedule != "all" {
		schedules = []string{*schedule}
	}
	failed, vacuous := false, false
	for _, name := range schedules {
		ok, injected, err := runSchedule(name, *seed, *sessions, *events, names, *verbose)
		if err != nil {
			fatalf("schedule %s: %v", name, err)
		}
		if !ok {
			failed = true
		}
		if injected < int64(*minFaults) {
			fmt.Fprintf(os.Stderr, "racechaos: schedule %s injected %d faults, want >= %d — the run proved nothing\n",
				name, injected, *minFaults)
			vacuous = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if vacuous {
		os.Exit(2)
	}
	fmt.Println("racechaos: all schedules met the contract")
}

// chaosFleet is one booted fleet plus the fault hooks its schedule armed.
type chaosFleet struct {
	router  *fleet.Router
	addr    string // router wire address
	cleanup []func()

	// injected returns how many faults the schedule has fired so far.
	injected func() int64
}

func (c *chaosFleet) close() {
	for i := len(c.cleanup) - 1; i >= 0; i-- {
		c.cleanup[i]()
	}
}

// buildFleet boots two durable in-process backends behind a router with the
// named fault schedule armed. Fast probes keep failover and recovery inside
// the harness's patience: a backend a failed call marked down earns its way
// back in two good probes (eight while flapping), 100–400 ms.
func buildFleet(schedule string, seed uint64) (*chaosFleet, error) {
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

	var fs1 fault.FS = fault.OS{}
	var injectFS *fault.InjectFS
	if schedule == "disk" {
		// One backend's disk goes bad: occasional failed syncs and writes,
		// plus a hard ENOSPC wall. The other backend's disk stays clean, so
		// the fleet keeps taking sessions while the sick one degrades.
		injectFS = fault.NewInjectFS(fault.OS{}, fault.FSPlan{
			Seed:          seed,
			SyncFailProb:  0.02,
			WriteFailProb: 0.002,
			ENOSPCAfter:   8 << 20,
		})
		fs1 = injectFS
	}
	srv1 := server.New(cfg("b1", fs1))
	srv2 := server.New(cfg("b2", fault.OS{}))
	c.cleanup = append(c.cleanup, func() { srv1.Close() }, func() { srv2.Close() })

	var b1 fleet.Backend = fleet.NewLocal("b1", srv1)
	b2 := fleet.NewLocal("b2", srv2)

	var gate *fault.Gate
	if schedule == "flap" {
		// One backend flaps: short up/down cycles severing its wire ops
		// (and probes) while it is down — sessions must ride the failovers.
		gate = fault.NewGate(fault.GatePlan{
			Seed:     seed,
			MeanUp:   400 * time.Millisecond,
			MeanDown: 120 * time.Millisecond,
		})
		b1 = fleet.NewFaultBackend(b1, func(op string) error {
			switch op {
			case "open", "resume", "feed", "flush", "close", "healthz":
				return gate.Err()
			}
			return nil
		})
	}

	// Session ids pick backends, so they come from the seed too: which
	// sessions land on the backend a schedule breaks must replay with it.
	var idMu sync.Mutex
	ids := fault.NewRand(seed ^ 0x5e5510) // its own stream, apart from the fault plans'
	opts := fleet.Options{
		ProbeInterval: 50 * time.Millisecond,
		IOTimeout:     5 * time.Second,
		NewSessionID: func() string {
			idMu.Lock()
			defer idMu.Unlock()
			return fmt.Sprintf("f%012x", ids.Uint64()>>16)
		},
	}
	var connStats *fault.ConnStats
	if schedule == "net" {
		// The client↔router wire takes the beating: latency, drops, and
		// bit flips. Flips must surface as CRC-caught corrupt frames (never
		// as silently wrong data); drops as reconnect+resume.
		connStats = fault.NewConnStats()
		// Probabilities are per Read/Write call (bufio batches them into a
		// few dozen calls per megabyte), so per-call odds this high still
		// mean a handful of faults per session, not a storm.
		plan := fault.ConnPlan{
			Seed:       seed,
			LatencyMax: 200 * time.Microsecond,
			DropProb:   0.03,
			FlipProb:   0.02,
			FirstByte:  1 << 14, // let every handshake through
		}
		rng := fault.NewRand(seed)
		opts.WrapConn = func(conn net.Conn) net.Conn {
			p := plan
			p.Seed = rng.Split() // per-connection deterministic sub-schedule
			return fault.WrapConn(conn, p, connStats)
		}
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

	c.injected = func() int64 {
		switch {
		case injectFS != nil:
			return injectFS.Injected()
		case connStats != nil:
			// Latency is seasoning, not a fault; gate on the ones that
			// actually break something.
			counts := connStats.Counts()
			return counts["drop"] + counts["flip"] + counts["stall"]
		case gate != nil:
			return gate.Faults()
		}
		return 0
	}
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

// runSchedule streams sessions through one armed schedule and scores them
// against the contract: every session ends byte-identical or loudly
// classified; a mismatch (silent corruption) or an unclassified error is a
// violation.
func runSchedule(schedule string, seed uint64, sessions, events int, names []string, verbose bool) (bool, int64, error) {
	c, err := buildFleet(schedule, seed)
	if err != nil {
		return false, 0, err
	}
	defer c.close()

	programs := []string{"avrora", "xalan", "h2", "tomcat", "jython", "lusearch"}
	ok, completed, failedLoud := true, 0, 0
	for i := 0; i < sessions; i++ {
		prog, _ := workload.ProgramByName(programs[i%len(programs)])
		tr := prog.Generate(events, int64(3+i))
		want, err := reference(tr, names)
		if err != nil {
			return false, 0, fmt.Errorf("reference analysis: %w", err)
		}
		verdict := streamSession(c.addr, tr, names, want)
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
			fmt.Printf("racechaos: %s session %d (%s, %d events): %s\n",
				schedule, i, prog.Name, tr.Len(), verdict)
		}
	}

	injected := c.injected()
	fmt.Printf("racechaos: schedule=%s seed=%d sessions=%d ok=%d failed-classified=%d injected-faults=%d\n",
		schedule, seed, sessions, completed, failedLoud, injected)
	return ok, injected, nil
}

// streamSession pushes one trace through a reliable session and returns
// "ok" (byte-identical report), a classified failure name, "mismatch", or
// "unclassified".
func streamSession(addr string, tr *race.Trace, names []string, want []byte) string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sess, err := server.OpenReliable(ctx, addr, server.SessionConfig{Analyses: names},
		server.WithRetry(server.RetryPolicy{MaxAttempts: 12, BaseDelay: 10 * time.Millisecond, MaxDelay: 250 * time.Millisecond}))
	if err != nil {
		return failureVerdict(err)
	}
	const chunk = 1024
	for off := 0; off < len(tr.Events); off += chunk {
		end := min(off+chunk, len(tr.Events))
		if err := sess.FeedBatch(tr.Events[off:end]); err != nil {
			return failureVerdict(err)
		}
		if off/chunk%8 == 7 {
			if err := sess.Flush(); err != nil {
				return failureVerdict(err)
			}
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
