// Command httpserver runs an HTTP-style server instrumented with the
// race/sync shadow primitives and detects a seeded predictable race
// ONLINE — while the server is handling requests — through an attached
// multi-analysis engine.
//
// The seeded bug is the paper's Figure 1 scenario living in a real
// program: the /stats handler updates a hit counter under the stats
// mutex, while the /about handler takes the same mutex only to read a
// feature flag and then increments the counter on an unguarded "fast
// path". In the observed execution the /about request happens to be
// handled after /stats, so the release→acquire edge on the mutex orders
// the two increments and happens-before (FTO-HB) sees nothing. The
// predictive relations (WCP, DC, WDC) ignore that edge — the two
// critical sections share no conflicting access — and report the race
// the first time the unguarded increment executes; vindication then
// proves it real by constructing a witness reordering.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	stdsync "sync"

	"repro/race"
	raceserver "repro/race/server"
	sync "repro/race/sync"
)

// The server's shared data, identified by recording keys.
const (
	keyHits     = "stats.hits"      // request counter — the racy datum
	keyEnabled  = "stats.enabled"   // feature flag read by /about
	keyGreeting = "config.greeting" // configuration read by /config
)

type request struct{ path string }

// server bundles the instrumented server state.
type server struct {
	statsMu sync.Mutex   // guards keyHits (supposedly)
	cfgMu   sync.RWMutex // guards keyGreeting
	lazy    sync.Once    // lazy config load
	wg      sync.WaitGroup
}

// handle processes one request on worker goroutine g.
func (s *server) handle(g *sync.G, req request) {
	s.lazy.Do(g, func() { g.Write(keyGreeting) })
	switch req.path {
	case "/stats":
		// Correct slow path: read-modify-write of the counter under the
		// stats mutex.
		s.statsMu.Lock(g)
		g.Read(keyHits)
		g.Write(keyHits)
		s.statsMu.Unlock(g)
	case "/about":
		// A critical section on the same mutex that does NOT touch the
		// counter — it only checks the feature flag...
		s.statsMu.Lock(g)
		g.Read(keyEnabled)
		s.statsMu.Unlock(g)
		// ...followed by the seeded bug: a "fast path" that records the
		// hit with a blind store outside any lock.
		g.Write(keyHits)
	case "/config":
		s.cfgMu.RLock(g)
		g.Read(keyGreeting)
		s.cfgMu.RUnlock(g)
	}
	s.wg.Done(g)
}

// analyses is the engine fan-out both the local and the remote variant
// run: the HB baseline that misses the seeded race plus the three
// SmartTrack predictive analyses that catch it.
var analyses = []string{"FTO-HB", "ST-WCP", "ST-DC", "ST-WDC"}

// run records and analyzes one serving session, writing online race
// reports to w as they are detected. It returns the engine's final
// report and every race delivered through the online callback.
func run(w io.Writer) (*race.Report, []race.RaceInfo, error) {
	var (
		onlineMu stdsync.Mutex
		online   []race.RaceInfo
	)
	eng, err := race.NewEngine(
		race.WithAnalysisNames(analyses...),
		race.WithVindication(),
		race.WithOnRace(func(r race.RaceInfo) {
			onlineMu.Lock()
			online = append(online, r)
			onlineMu.Unlock()
			fmt.Fprintf(w, "online: %-6s flagged a race while serving (var %d, event %d)\n",
				r.Analysis, r.Var, r.Index)
		}),
	)
	if err != nil {
		return nil, nil, err
	}
	env := sync.NewEnv(race.WithEngineAttached(eng))
	rep, err := serveTraffic(env)
	return rep, online, err
}

// serveTraffic starts the instrumented server under env, drives the three
// requests whose interleaving seeds the Figure 1 race, and finishes the
// recording — the part shared by in-process and remote detection.
func serveTraffic(env *sync.Env) (*race.Report, error) {
	root := env.Root()
	s := &server{}

	// Startup: write the configuration under the write lock.
	s.cfgMu.Lock(root)
	root.Write(keyGreeting)
	s.cfgMu.Unlock(root)

	// Two workers, each draining its own connection queue.
	qa := sync.NewChan[request](2)
	qb := sync.NewChan[request](2)
	s.wg.Add(root, 3) // three requests in flight

	// configDone and statsDone are plain, UNRECORDED channels standing in
	// for scheduler timing: they pin the observed handler order to
	// /config, /stats, /about without adding any edge the analyses can
	// observe — in the uninstrumented program the interleaving is up to
	// the scheduler, which is exactly why the race is predictable rather
	// than observed.
	configDone := make(chan struct{})
	statsDone := make(chan struct{})

	wa := root.Go(func(g *sync.G) {
		for {
			req, ok := qa.Recv(g)
			if !ok {
				close(statsDone) // qa drained: /stats has been handled
				return
			}
			<-configDone
			s.handle(g, req)
		}
	})
	wb := root.Go(func(g *sync.G) {
		configServed := false
		for {
			req, ok := qb.Recv(g)
			if !ok {
				return
			}
			if req.path == "/about" {
				<-statsDone
			}
			s.handle(g, req)
			if req.path == "/config" && !configServed {
				configServed = true
				close(configDone)
			}
		}
	})

	qa.Send(root, request{"/stats"})
	qb.Send(root, request{"/config"})
	qb.Send(root, request{"/about"})
	qa.Close(root)
	qb.Close(root)

	// Graceful shutdown: wait for in-flight requests, scrape the counter
	// (safe: ordered after every handler by Done/Wait), join the workers.
	s.wg.Wait(root)
	root.Read(keyHits)
	wa.Join(root)
	wb.Join(root)

	return env.Finish()
}

// runRemote is the end-to-end remote variant: the same instrumented server
// records through a Runtime whose sink is a session on a raced instance,
// so every committed event streams over the wire protocol and the report —
// including the vindication verdict for the seeded Figure 1 race — is
// computed by the remote detector. addr is a raced wire-protocol endpoint;
// empty spins up an in-process raced on a loopback listener.
func runRemote(w io.Writer, addr string) (*race.Report, error) {
	if addr == "" {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer lis.Close()
		raced := raceserver.New(raceserver.Config{})
		defer raced.Close()
		go raced.ServeTCP(lis)
		addr = lis.Addr().String()
		fmt.Fprintf(w, "remote: in-process raced on %s\n", addr)
	}
	client, err := raceserver.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	sess, err := client.Open(raceserver.SessionConfig{Analyses: analyses, Vindicate: true})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "remote: streaming session %s\n", sess.ID())
	env := sync.NewEnv(race.WithEngineAttached(sess))
	return serveTraffic(env)
}

func main() {
	remote := flag.Bool("remote", false, "detect remotely: stream the recording to a raced server (-addr, default in-process)")
	addr := flag.String("addr", "", "raced wire-protocol address for -remote (empty spins one up in-process)")
	flag.Parse()

	var (
		rep    *race.Report
		online []race.RaceInfo
		err    error
	)
	if *remote {
		rep, err = runRemote(os.Stdout, *addr)
	} else {
		rep, online, err = run(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "httpserver:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("final reports (dynamic/static races):")
	for _, name := range rep.Analyses() {
		sub, _ := rep.ByAnalysis(name)
		verdict := ""
		if rs := sub.Races(); len(rs) > 0 {
			if res, ok := rep.Vindication(rs[0].Index); ok && res.Vindicated {
				verdict = "  (vindicated: witness reordering verified)"
			}
		}
		fmt.Printf("  %-6s  %d/%d%s\n", name, sub.Dynamic(), sub.Static(), verdict)
	}
	if *remote {
		fmt.Println("\ndetection ran on the raced server: HB misses the Figure 1 race; WCP/DC/WDC catch it over the wire")
	} else {
		fmt.Printf("\nonline detections: %d — HB misses the Figure 1 race; WCP/DC/WDC catch it during execution\n", len(online))
	}
}
