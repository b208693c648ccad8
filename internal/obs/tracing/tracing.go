// Package tracing is a dependency-free distributed-tracing core for the
// raced/racefleet pipeline: seeded-ID spans with parent links and string
// attributes, a lock-free fixed-size ring of completed spans, W3C
// traceparent encode/decode for context propagation across HTTP and wire
// hops, Chrome trace_event export (Perfetto-loadable), and slow-span
// logging.
//
// The design mirrors the obs metrics registry: a nil *Tracer is the
// disabled state, every method is nil-safe, and the disabled hot path
// performs zero allocations (guarded by AllocsPerRun in the tests), so
// instrumentation points can call through unconditionally.
//
// Span identity follows the W3C Trace Context model: a 16-byte trace ID
// names the whole request tree across processes, an 8-byte span ID names
// one timed operation, and a span's parent link is the span ID of the
// operation that caused it — possibly in another process, carried there
// by a traceparent header or an optional wire-frame field. IDs come from
// a seeded splitmix64 sequence, so tests can pin Seed and assert exact
// IDs.
package tracing

import (
	"encoding/hex"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request tree across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated identity of a span: enough for a remote
// hop to continue the same trace with a correct parent link.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte // bit 0: sampled
}

// Valid reports whether the context names a real span (both IDs nonzero),
// which is what W3C requires of a traceparent worth propagating.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span. Values are strings; callers
// format numbers themselves (strconv) so the disabled path never sees an
// interface conversion.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanData is a completed span as stored in the ring and exposed over
// /debug/traces.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID // zero for a trace's first span
	Name     string
	Service  string // the owning tracer's service name
	Root     bool   // first span of this trace inside this process
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Options configures a Tracer.
type Options struct {
	// Service names the process in exported spans ("raced", "racefleet",
	// "racedetect"). Defaults to "unknown".
	Service string
	// RingSize is the capacity of the completed-span ring, rounded up to
	// a power of two. Defaults to 4096. Oldest spans are overwritten.
	RingSize int
	// Seed seeds the ID generator. Zero means a time-derived seed; tests
	// pass a fixed seed for reproducible IDs.
	Seed uint64
	// SlowThreshold, when positive, logs the full breakdown of any span
	// tree whose local root runs at least this long.
	SlowThreshold time.Duration
	// Logger receives slow-span breakdowns. Nil disables slow logging.
	Logger *slog.Logger
}

// Tracer creates spans and retains the most recent completed ones in a
// lock-free ring. A nil Tracer is valid and means tracing is disabled:
// Root and Child return nil spans and every operation is a no-op.
type Tracer struct {
	service string
	slow    time.Duration
	logger  *slog.Logger

	idCtr atomic.Uint64 // splitmix64 counter; seeded
	seed  uint64

	mask  uint64 // ringSize-1
	next  atomic.Uint64
	slots []atomic.Pointer[SpanData]
}

// New builds a Tracer. See Options for defaults.
func New(opts Options) *Tracer {
	if opts.Service == "" {
		opts.Service = "unknown"
	}
	size := opts.RingSize
	if size <= 0 {
		size = 4096
	}
	// Round up to a power of two so the ring index is a mask, not a mod.
	pow := 1
	for pow < size {
		pow <<= 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) | 1
	}
	t := &Tracer{
		service: opts.Service,
		slow:    opts.SlowThreshold,
		logger:  opts.Logger,
		seed:    seed,
		mask:    uint64(pow - 1),
		slots:   make([]atomic.Pointer[SpanData], pow),
	}
	return t
}

// Service returns the tracer's service name ("" on a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// splitmix64 is the finalizer from Vigna's splitmix64 generator: applied
// to a seeded counter it yields a full-period, well-mixed ID sequence
// without locks (one atomic add per 8 bytes of ID).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) nextID() uint64 {
	for {
		if id := splitmix64(t.seed + t.idCtr.Add(1)); id != 0 {
			return id
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	putUint64(id[:8], t.nextID())
	putUint64(id[8:], t.nextID())
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	putUint64(id[:], t.nextID())
	return id
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// Span is one in-flight timed operation. A nil Span is the disabled state
// and every method on it is a no-op, so callers never branch on whether
// tracing is on.
type Span struct {
	tracer *Tracer
	data   SpanData
}

// Root starts a local root span: the first span of a trace inside this
// process. If remote is valid — a traceparent arrived with the request —
// the span joins that trace as a child of the remote span; otherwise it
// begins a fresh trace. Slow-span logging keys off local roots.
func (t *Tracer) Root(name string, remote SpanContext) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tracer: t}
	sp.data.Name = name
	sp.data.Service = t.service
	sp.data.Root = true
	sp.data.SpanID = t.newSpanID()
	if remote.Valid() {
		sp.data.TraceID = remote.TraceID
		sp.data.Parent = remote.SpanID
	} else {
		sp.data.TraceID = t.newTraceID()
	}
	sp.data.Start = time.Now()
	return sp
}

// Child starts a span under parent. An invalid parent degrades to Root:
// the instrumentation point does not care whether context made it this
// far, it just records what it did.
func (t *Tracer) Child(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.Root(name, SpanContext{})
	}
	sp := &Span{tracer: t}
	sp.data.Name = name
	sp.data.Service = t.service
	sp.data.TraceID = parent.TraceID
	sp.data.Parent = parent.SpanID
	sp.data.SpanID = t.newSpanID()
	sp.data.Start = time.Now()
	return sp
}

// Context returns the span's propagable identity (zero on a nil span).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.data.TraceID, SpanID: sp.data.SpanID, Flags: 1}
}

// SetAttr annotates the span. No-op on a nil span.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.data.Attrs = append(sp.data.Attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value. The nil check runs
// before any formatting, so disabled call sites pay no strconv work.
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.data.Attrs = append(sp.data.Attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// SetError records err as an "error" attribute when non-nil.
func (sp *Span) SetError(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.data.Attrs = append(sp.data.Attrs, Attr{Key: "error", Value: err.Error()})
}

// End completes the span: its duration is fixed, it is pushed into the
// ring, and — if it is a local root that ran past the slow threshold —
// its whole tree is logged. End on a nil span is a no-op. A span must be
// ended at most once and not touched afterwards.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.tracer
	sp.data.Duration = time.Since(sp.data.Start)
	idx := t.next.Add(1) - 1
	t.slots[idx&t.mask].Store(&sp.data)
	if sp.data.Root && t.slow > 0 && sp.data.Duration >= t.slow && t.logger != nil {
		t.logSlow(&sp.data)
	}
}

// Snapshot returns the completed spans currently in the ring, ordered by
// start time. Nil tracers return nil.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	out := make([]SpanData, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID.String() < out[j].SpanID.String()
	})
	return out
}

// Trace returns the retained spans of one trace, ordered by start time.
func (t *Tracer) Trace(id TraceID) []SpanData {
	all := t.Snapshot()
	out := all[:0]
	for _, s := range all {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}

// logSlow emits the root and an indented breakdown of every retained span
// of its trace, children grouped under parents in start order.
func (t *Tracer) logSlow(root *SpanData) {
	spans := t.Trace(root.TraceID)
	var b strings.Builder
	writeTree(&b, spans, root.SpanID, root, 0)
	t.logger.Warn("slow trace",
		"trace", root.TraceID.String(),
		"root", root.Name,
		"dur", root.Duration,
		"spans", len(spans),
		"breakdown", b.String())
}

// writeTree renders span and its descendants, one "name dur [attrs]" line
// per span, two spaces of indent per depth.
func writeTree(b *strings.Builder, spans []SpanData, id SpanID, sd *SpanData, depth int) {
	if depth > 0 {
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %s", sd.Name, sd.Duration)
	for _, a := range sd.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	if depth >= 16 { // defensive: a parent cycle cannot recurse forever
		return
	}
	for i := range spans {
		if spans[i].Parent == id && spans[i].SpanID != id {
			writeTree(b, spans, spans[i].SpanID, &spans[i], depth+1)
		}
	}
}
