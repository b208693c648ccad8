// Command racedetect streams a trace file through the race detection
// engine and reports the races found, optionally vindicating each one.
// The trace is never materialized: events flow from the streaming decoder
// straight into the engine, so memory goes to retained analysis metadata
// (last-access state, and critical-section logs for the predictive
// relations) rather than the event list itself. Vindication, which needs
// the full trace for witness construction, makes the engine retain it in
// memory.
//
// Several analyses can run over the file in a single pass:
//
//	racedetect -analysis ST-DC trace.bin
//	racedetect -analysis FTO-HB,ST-WCP,ST-WDC trace.bin
//	racedetect -analysis ST-WDC -vindicate trace.bin
//	racedetect -list
//
// A racelog directory (the raced per-session journal format, package
// store) is analyzed directly — recovery runs in memory, so a journal can
// be analyzed post-mortem without disturbing it:
//
//	racedetect -analysis ST-WDC /var/lib/raced/sessions/s000042/journal
//
// With -remote the trace is not analyzed in-process: it streams over the
// raced wire protocol to a detection server, and the printed report is the
// one the server computed. -resume re-attaches to a durable session a
// restarted raced recovered (the events the server already acked are
// skipped):
//
//	racedetect -remote localhost:7118 -analysis ST-WDC trace.bin
//	racedetect -remote localhost:7118 -resume s000042 trace.bin
//
// -retry makes the remote stream self-healing: on a dropped connection or
// a fleet redirect (racefleet migrating the session to another backend)
// the client reconnects with bounded exponential backoff, resumes the same
// session, and replays the unacknowledged suffix. -flush-every bounds the
// replay buffer (and the data at risk) by forcing a durability barrier
// every N events:
//
//	racedetect -remote localhost:7119 -retry -flush-every 100000 trace.bin
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/store"
	"repro/race"
	"repro/race/server"
)

func main() {
	var (
		names     = flag.String("analysis", "ST-DC", "comma-separated analyses to run in one pass (see -list)")
		text      = flag.Bool("text", false, "input is the text trace format")
		vind      = flag.Bool("vindicate", false, "attempt to vindicate each statically distinct race")
		online    = flag.Bool("online", false, "print races as they are detected (streaming callbacks)")
		quiet     = flag.Bool("q", false, "print only the summary lines")
		maxReport = flag.Int("max", 20, "maximum dynamic races to print per analysis")
		list      = flag.Bool("list", false, "list available analyses")
		remote    = flag.String("remote", "", "stream to a raced server at this TCP address instead of analyzing in-process")
		resume    = flag.String("resume", "", "with -remote: resume this durable session id, skipping the events the server already accepted")
		timeout   = flag.Duration("connect-timeout", 10*time.Second, "with -remote: dial + handshake timeout")
		retry     = flag.Bool("retry", false, "with -remote: reconnect and resume automatically (exponential backoff) on connection loss or fleet handoff")
		flushEach = flag.Int("flush-every", 0, "with -remote: force a flush barrier every N events (bounds the -retry replay buffer)")
		traceOn   = flag.Bool("trace", false, "with -remote: start a distributed trace for the stream and print its id (follow it in /debug/traces on the server or router)")
	)
	flag.Parse()

	if *list {
		for _, d := range race.DetectorTable() {
			tags := []string{}
			if d.Caps.Predictive {
				tags = append(tags, "predictive")
			}
			if d.Caps.NeedsVindication {
				tags = append(tags, "needs-vindication")
			}
			if d.Caps.BuildsGraph {
				tags = append(tags, "builds-graph")
			}
			fmt.Printf("%-15s %s\n", d.Name, strings.Join(tags, ","))
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racedetect [-analysis NAMES] [-vindicate] trace-file")
		os.Exit(2)
	}

	var src race.EventSource
	var hints race.CapacityHints
	var logDir string // non-empty when the input is a racelog directory
	if fi, err := os.Stat(flag.Arg(0)); err == nil && fi.IsDir() {
		logDir = flag.Arg(0)
		// A racelog directory: read it in place (recovery is in-memory
		// only) and use its summary as exact capacity hints.
		r, err := store.OpenRead(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer r.Close()
		h, _ := r.Header()
		hints = race.CapacityHints{
			Threads: h.Threads, Vars: h.Vars, Locks: h.Locks,
			Volatiles: h.Volatiles, Classes: h.Classes, Events: int(h.Events),
		}
		src = r
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if *text {
			src = race.NewTextTraceDecoder(f)
		} else {
			src = race.NewTraceDecoder(f)
		}
	}

	analyses := strings.Split(*names, ",")
	var (
		rep   *race.Report
		fed   int
		start = time.Now()
	)
	if *remote != "" {
		// Remote mode: the events stream over the wire protocol; analysis
		// and (optional) vindication happen on the server.
		if *online {
			fmt.Fprintln(os.Stderr, "racedetect: -online has no effect with -remote: the wire protocol has no callback channel (poll GET /sessions/{id}/races on the server's HTTP API instead)")
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		cfg := server.SessionConfig{Analyses: analyses, Vindicate: *vind, Hints: hints}
		var tracer *tracing.Tracer
		if *traceOn {
			tracer = tracing.New(tracing.Options{Service: "racedetect"})
		}
		var sess remoteStream
		var skip uint64
		var err error
		if *retry {
			ropts := []server.ReliableOption{server.WithRetry(server.RetryPolicy{}), server.WithTracer(tracer)}
			if *resume != "" {
				sess, skip, err = server.ResumeReliable(ctx, *remote, *resume, ropts...)
			} else {
				sess, err = server.OpenReliable(ctx, *remote, cfg, ropts...)
			}
		} else {
			var client *server.Client
			client, err = server.DialContext(ctx, *remote)
			if err != nil {
				cancel()
				fatalf("%v", err)
			}
			defer client.Close()
			client.SetTracer(tracer)
			var rsess *server.RemoteSession
			if *resume != "" {
				rsess, skip, err = client.Resume(ctx, *resume)
			} else {
				rsess, err = client.OpenContext(ctx, cfg)
			}
			sess = rsess
		}
		cancel()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "racedetect: remote session %s (resume at offset %d)\n", sess.ID(), skip)
		if sc := sess.TraceContext(); sc.Valid() {
			fmt.Fprintf(os.Stderr, "racedetect: trace %s\n", sc.TraceID.String())
		}
		if logDir != "" && skip > 0 {
			// Racelog input: fixed-width records make the resume offset a
			// seek, not a decode-and-discard of the whole acked prefix.
			r, err := store.OpenReadAt(logDir, skip)
			if err != nil {
				fatalf("%v", err)
			}
			defer r.Close()
			src, skip = r, 0
		}
		fed, err = feedSinkFrom(sess, src, skip, *flushEach)
		if err != nil {
			fatalf("streaming trace to %s: %v", *remote, err)
		}
		if rep, err = sess.Close(); err != nil {
			fatalf("remote analysis: %v", err)
		}
	} else {
		if *resume != "" {
			fatalf("-resume requires -remote")
		}
		opts := []race.Option{race.WithAnalysisNames(analyses...), race.WithCapacityHints(hints)}
		if *vind {
			opts = append(opts, race.WithVindication())
		}
		if *online {
			opts = append(opts, race.WithOnRace(func(r race.RaceInfo) {
				kind := "read"
				if r.Write {
					kind = "write"
				}
				fmt.Printf("online: %s race on var %d at loc %d (event %d, %s)\n",
					r.Analysis, r.Var, r.Loc, r.Index, kind)
			}))
		}
		eng, err := race.NewEngine(opts...)
		if err != nil {
			fatalf("%v", err)
		}
		if err := eng.FeedSource(src); err != nil {
			fatalf("streaming trace: %v", err)
		}
		if rep, err = eng.Close(); err != nil {
			fatalf("%v", err)
		}
		fed = eng.Fed()
	}
	dur := time.Since(start)

	// One pass, one throughput: the stream is fed to every analysis
	// together, so per-analysis throughput is not separable here.
	fmt.Printf("%d events through %d analyses in one pass (%.2f Mevents/s combined)\n",
		fed, len(rep.Analyses()), float64(fed)/1e6/dur.Seconds())
	for _, name := range rep.Analyses() {
		sub, _ := rep.ByAnalysis(name)
		fmt.Printf("%s: %d statically distinct races, %d dynamic races\n",
			name, sub.Static(), sub.Dynamic())
		if *quiet {
			continue
		}
		printed := 0
		for _, r := range sub.Races() {
			if printed >= *maxReport {
				fmt.Printf("  ... %d more dynamic races\n", sub.Dynamic()-printed)
				break
			}
			kind := "read"
			if r.Write {
				kind = "write"
			}
			fmt.Printf("  race on var %d at loc %d (event %d, %s)", r.Var, r.Loc, r.Index, kind)
			if res, ok := sub.Vindication(r.Index); ok {
				if res.Vindicated {
					fmt.Printf("  [vindicated: witness of %d events]", len(res.Witness))
				} else {
					fmt.Printf("  [unverified: %s]", res.Reason)
				}
			}
			fmt.Println()
			printed++
		}
	}
}

// remoteStream is the common surface of *server.RemoteSession and
// *server.ReliableSession that the remote path drives: an EventSink plus
// the wire flush barrier.
type remoteStream interface {
	race.EventSink
	ID() string
	Flush() error
	TraceContext() tracing.SpanContext
}

// feedSinkFrom drains an event source into an event sink (the remote
// session), skipping the first skip events — the prefix a resumed session
// has already accepted — and counting the events fed. Racelog inputs seek
// instead (store.OpenReadAt); flat trace files pay a decode-and-discard
// of the prefix, bounded by the decoder's tens-of-Mevents/sec. A positive
// flushEvery inserts a flush barrier every that many fed events.
func feedSinkFrom(sink remoteStream, src race.EventSource, skip uint64, flushEvery int) (int, error) {
	n := 0
	for {
		ev, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if skip > 0 {
			skip--
			continue
		}
		if err := sink.Feed(ev); err != nil {
			return n, err
		}
		n++
		if flushEvery > 0 && n%flushEvery == 0 {
			if err := sink.Flush(); err != nil {
				return n, err
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racedetect: "+format+"\n", args...)
	os.Exit(1)
}
