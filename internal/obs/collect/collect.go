// Package collect is the scrape-and-aggregate half of the load harness
// as an importable library: it polls the Prometheus exposition of N
// /metrics endpoints (raced backends and/or a racefleet router), folds
// successive polling rounds into counter-delta fleet throughput, and
// builds the schema-versioned LOAD_*.json report that cmd/racemon writes
// and cmd/raceload embeds.
//
// The split from cmd/racemon (where this logic originated) exists so one
// process can correlate client-observed SLOs with server-observed queue
// depth and backpressure: the raceload generator runs a Collector inline
// while it drives traffic, instead of requiring a sidecar process.
//
// Check validates a report the way CI does: schema version, at least one
// cycle, and per-target counter monotonicity across cycles. It accepts
// both the racemon/v1 collector report and the raceload/v1 superset
// (same collector fields plus a "generator" section).
package collect

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is the collector report schema (cmd/racemon output).
const SchemaVersion = "racemon/v1"

// LoadSchemaVersion is the schema of the raceload superset report, which
// embeds the collector fields and adds a generator section. Check accepts
// both.
const LoadSchemaVersion = "raceload/v1"

// ThroughputCounter is the counter whose cross-target delta defines the
// fleet events/second aggregate.
const ThroughputCounter = "raced_events_analyzed_total"

// FlushAckHistogram is the server-side flush-barrier latency histogram
// the summary quantiles are drawn from.
const FlushAckHistogram = "raced_flush_ack_seconds"

// Report is the LOAD_*.json document (the collector half; raceload
// embeds it and adds a generator section under its own schema).
type Report struct {
	Schema          string   `json:"schema"`
	IntervalSeconds float64  `json:"interval_seconds"`
	Targets         []string `json:"targets"`
	Cycles          []Cycle  `json:"cycles"`
	Summary         Summary  `json:"summary"`
}

// Cycle is one polling round across every target.
type Cycle struct {
	// Unix is the scrape wall-clock time in seconds (omitted by reports
	// predating it); raceload uses it to correlate ramp steps with
	// server-side samples.
	Unix    float64                 `json:"unix,omitempty"`
	Targets map[string]TargetSample `json:"targets"`
	Fleet   FleetSample             `json:"fleet"`
}

// TargetSample is one target's scrape: flat counter/gauge values by
// canonical name and histograms reduced to count/sum/quantiles.
type TargetSample struct {
	Up         bool                 `json:"up"`
	Counters   map[string]float64   `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]HistStats `json:"histograms,omitempty"`
}

// HistStats summarizes one histogram family (samples merged across its
// label sets).
type HistStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// FleetSample is the cross-target aggregate for one cycle.
type FleetSample struct {
	// EventsPerSecond is the fleet-wide analysis throughput over the
	// interval ending at this cycle (0 for the first cycle — no delta yet).
	EventsPerSecond float64 `json:"events_per_second"`
	// EventsAnalyzedTotal sums raced_events_analyzed_total across targets.
	EventsAnalyzedTotal float64 `json:"events_analyzed_total"`
}

// Summary is the whole run reduced to its headline numbers.
type Summary struct {
	Cycles                   int     `json:"cycles"`
	ScrapeErrors             int     `json:"scrape_errors"`
	SustainedEventsPerSecond float64 `json:"sustained_events_per_second"`
	PeakEventsPerSecond      float64 `json:"peak_events_per_second"`
	FlushAckP50Seconds       float64 `json:"flush_ack_p50_seconds"`
	FlushAckP99Seconds       float64 `json:"flush_ack_p99_seconds"`
}

// Collector folds successive polling rounds into a report, computing the
// fleet counter-delta throughput between rounds. It is driven from one
// goroutine; Record and Finish are not safe for concurrent use.
type Collector struct {
	rep        *Report
	prev       map[string]float64 // per-target ThroughputCounter at its last successful scrape
	prevAt     time.Time
	totalDelta float64
	firstAt    time.Time
}

// New returns a Collector appending cycles to rep.
func New(rep *Report) *Collector {
	return &Collector{rep: rep, prev: make(map[string]float64)}
}

// Record appends one polling round. Throughput is the per-target delta of
// raced_events_analyzed_total over the wall-clock gap since the previous
// round, summed across targets (zero for the first round — no delta yet).
// Deltas are per target, each measured from that target's last successful
// scrape: a target that misses a round (down, or truncated under load)
// contributes nothing while dark and resumes from its old baseline when it
// returns, instead of its whole cumulative counter reappearing as one
// giant spike. A negative per-target delta (a restarted backend reset its
// counters) likewise contributes nothing rather than a negative rate.
func (c *Collector) Record(now time.Time, samples map[string]TargetSample) Cycle {
	cyc := Cycle{Unix: float64(now.UnixNano()) / 1e9, Targets: samples}
	for _, s := range samples {
		cyc.Fleet.EventsAnalyzedTotal += s.Counters[ThroughputCounter]
	}
	if !c.prevAt.IsZero() {
		var delta float64
		for tgt, s := range samples {
			if !s.Up {
				continue
			}
			if last, ok := c.prev[tgt]; ok {
				if d := s.Counters[ThroughputCounter] - last; d > 0 {
					delta += d
				}
			}
		}
		if dt := now.Sub(c.prevAt).Seconds(); dt > 0 {
			cyc.Fleet.EventsPerSecond = delta / dt
			c.totalDelta += delta
			if cyc.Fleet.EventsPerSecond > c.rep.Summary.PeakEventsPerSecond {
				c.rep.Summary.PeakEventsPerSecond = cyc.Fleet.EventsPerSecond
			}
		}
	} else {
		c.firstAt = now
	}
	for tgt, s := range samples {
		if s.Up {
			c.prev[tgt] = s.Counters[ThroughputCounter]
		}
	}
	c.prevAt = now
	c.rep.Cycles = append(c.rep.Cycles, cyc)
	return cyc
}

// Run is the polling loop cmd/racemon and the raceload generator share:
// every interval it scrapes each target of the report, counts and logs the
// ones that fail (recorded as down) and records the round, until ctx ends
// or — when cycles > 0 — that many rounds are in.
func (c *Collector) Run(ctx context.Context, interval time.Duration, cycles int, logger *slog.Logger) {
	client := &http.Client{Timeout: interval}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for n := 1; ; n++ {
		now := time.Now()
		samples := make(map[string]TargetSample, len(c.rep.Targets))
		for _, u := range c.rep.Targets {
			s, err := Scrape(client, u)
			if err != nil {
				logger.Warn("scrape failed", "target", u, "err", err)
				c.rep.Summary.ScrapeErrors++
			}
			samples[u] = s
		}
		cyc := c.Record(now, samples)
		logger.Debug("cycle", "n", n, "events_total", cyc.Fleet.EventsAnalyzedTotal,
			"events_per_second", cyc.Fleet.EventsPerSecond)
		if n == cycles {
			return
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// Finish computes the run summary from the collected cycles.
func (c *Collector) Finish() {
	rep := c.rep
	rep.Summary.Cycles = len(rep.Cycles)
	if elapsed := c.prevAt.Sub(c.firstAt).Seconds(); elapsed > 0 {
		rep.Summary.SustainedEventsPerSecond = c.totalDelta / elapsed
	}
	if len(rep.Cycles) == 0 {
		return
	}
	// Flush-ack quantiles from the last cycle, worst target wins (merging
	// interpolated quantiles across targets would fabricate precision).
	last := rep.Cycles[len(rep.Cycles)-1]
	for _, ts := range last.Targets {
		if h, ok := ts.Histograms[FlushAckHistogram]; ok && h.Count > 0 {
			if h.P50 > rep.Summary.FlushAckP50Seconds {
				rep.Summary.FlushAckP50Seconds = h.P50
			}
			if h.P99 > rep.Summary.FlushAckP99Seconds {
				rep.Summary.FlushAckP99Seconds = h.P99
			}
		}
	}
}

// NormalizeTarget turns host:port into a full metrics URL.
func NormalizeTarget(t string) string {
	if !strings.Contains(t, "://") {
		t = "http://" + t
	}
	return strings.TrimSuffix(t, "/")
}

// Scrape fetches and reduces one target's Prometheus exposition. base is
// a normalized URL prefix (see NormalizeTarget); the metrics path and
// format selector are appended here.
func Scrape(client *http.Client, base string) (TargetSample, error) {
	res, err := client.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return TargetSample{}, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return TargetSample{}, fmt.Errorf("status %s", res.Status)
	}
	fams, err := obs.ParseText(res.Body)
	if err != nil {
		return TargetSample{}, err
	}
	s := TargetSample{
		Up:         true,
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistStats),
	}
	for _, f := range fams {
		switch f.Type {
		case "histogram":
			if h := f.Histogram(); h != nil {
				s.Histograms[f.Name] = HistStats{
					Count: h.Count, Sum: h.Sum,
					P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
				}
			}
		case "gauge":
			for _, sm := range f.Samples {
				s.Gauges[obs.SeriesKey(sm.Name, sm.Labels)] += sm.Value
			}
		default: // counter, untyped
			for _, sm := range f.Samples {
				s.Counters[obs.SeriesKey(sm.Name, sm.Labels)] += sm.Value
			}
		}
	}
	return s, nil
}

// CheckFile reads and validates a LOAD_*.json document (see Check).
func CheckFile(path string) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(doc, &rep); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	return Check(&rep)
}

// Check validates an unmarshalled report: schema version (racemon/v1 or
// the raceload/v1 superset), at least one cycle, and per-target counter
// monotonicity across cycles — the assertions CI's smoke jobs make.
func Check(rep *Report) error {
	if rep.Schema != SchemaVersion && rep.Schema != LoadSchemaVersion {
		return fmt.Errorf("schema %q, want %q or %q", rep.Schema, SchemaVersion, LoadSchemaVersion)
	}
	if len(rep.Targets) == 0 {
		return fmt.Errorf("no targets recorded")
	}
	if len(rep.Cycles) == 0 {
		return fmt.Errorf("no cycles collected")
	}
	if rep.Summary.Cycles != len(rep.Cycles) {
		return fmt.Errorf("summary.cycles = %d but %d cycles recorded", rep.Summary.Cycles, len(rep.Cycles))
	}
	prev := make(map[string]map[string]float64) // target → counter → last value
	for i, cyc := range rep.Cycles {
		for tgt, ts := range cyc.Targets {
			if !ts.Up {
				continue
			}
			if prev[tgt] == nil {
				prev[tgt] = make(map[string]float64)
			}
			names := make([]string, 0, len(ts.Counters))
			for name := range ts.Counters {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				v := ts.Counters[name]
				if last, ok := prev[tgt][name]; ok && v < last {
					return fmt.Errorf("cycle %d: %s %s went backwards (%v -> %v)", i, tgt, name, last, v)
				}
				prev[tgt][name] = v
			}
		}
	}
	return nil
}
