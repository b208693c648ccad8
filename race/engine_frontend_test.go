package race_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
	"repro/race"
)

// sliceSource is an EventSource over a slice that ends with io.EOF, or with
// fail (if set) once the events are exhausted.
type sliceSource struct {
	evs  []race.Event
	fail error
}

func (s *sliceSource) Next() (race.Event, error) {
	if len(s.evs) == 0 {
		if s.fail != nil {
			return race.Event{}, s.fail
		}
		return race.Event{}, io.EOF
	}
	ev := s.evs[0]
	s.evs = s.evs[1:]
	return ev, nil
}

// entryPoints are the engine's four ways in; FeedBatch at three run
// lengths: per event, ragged against every internal boundary, and the chunk
// FeedTrace and FeedSource themselves use.
type entryPoint struct {
	name string
	feed func(eng *race.Engine, tr *race.Trace) error
}

var entryPoints = []entryPoint{
	{"Feed", func(eng *race.Engine, tr *race.Trace) error {
		for _, ev := range tr.Events {
			if err := eng.Feed(ev); err != nil {
				return err
			}
		}
		return nil
	}},
	{"FeedBatch/1", feedInRuns(1)},
	{"FeedBatch/7", feedInRuns(7)},
	{"FeedBatch/8192", feedInRuns(8192)},
	{"FeedTrace", (*race.Engine).FeedTrace},
	{"FeedSource", func(eng *race.Engine, tr *race.Trace) error {
		return eng.FeedSource(&sliceSource{evs: tr.Events})
	}},
}

func feedInRuns(n int) func(*race.Engine, *race.Trace) error {
	return func(eng *race.Engine, tr *race.Trace) error {
		for evs := tr.Events; len(evs) > 0; evs = evs[min(n, len(evs)):] {
			if err := eng.FeedBatch(evs[:min(n, len(evs))]); err != nil {
				return err
			}
		}
		return nil
	}
}

// engineShapes are the engine configurations every entry point must behave
// identically on.
var engineShapes = []struct {
	name string
	opts []race.Option
}{
	{"sequential", nil},
	{"parallel", []race.Option{race.WithParallelism(3), race.WithBatchSize(64)}},
	{"sequential+vindication", []race.Option{race.WithVindication()}},
	{"parallel+vindication", []race.Option{race.WithParallelism(2), race.WithVindication()}},
}

// onlineLog records OnRace deliveries per analysis. Parallel engines call
// it from their drainer goroutine; Close (clean or not) has joined that
// goroutine by the time the test reads the log.
type onlineLog struct {
	mu   sync.Mutex
	seen map[string][]race.RaceInfo
}

func (l *onlineLog) record(ri race.RaceInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = map[string][]race.RaceInfo{}
	}
	l.seen[ri.Analysis] = append(l.seen[ri.Analysis], ri)
}

func (l *onlineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b bytes.Buffer
	for _, name := range frontEndCells {
		for _, ri := range l.seen[name] {
			fmt.Fprintf(&b, "%s seq=%d var=%d loc=%d idx=%d wr=%v\n", name, ri.Seq, ri.Var, ri.Loc, ri.Index, ri.Write)
		}
	}
	return b.String()
}

var frontEndCells = []string{"ST-WDC", "FTO-HB", "Unopt-DC"}

// frontEndTrace spans five feedChunk-sized chunks and has races in each
// analysis of the fan-out.
func frontEndTrace() *race.Trace {
	p, _ := workload.ProgramByName("avrora")
	return p.Generate(40000, 2)
}

// TestEntryPointsAgree: one stream, every entry point, every engine shape —
// the Close report is byte-identical JSON, and every analysis's online
// races arrive in the same order with the same Seq. (Cross-analysis
// interleaving is per run and deliberately not compared.)
func TestEntryPointsAgree(t *testing.T) {
	tr := frontEndTrace()
	if tr.Len() < 4*8192 {
		t.Fatalf("trace has %d events; want several chunks", tr.Len())
	}
	for _, shape := range engineShapes {
		var wantDoc []byte
		var wantOnline string
		for _, ep := range entryPoints {
			name := shape.name + "/" + ep.name
			var online onlineLog
			opts := slices.Concat(shape.opts, []race.Option{race.WithAnalysisNames(frontEndCells...), race.WithOnRace(online.record)})
			eng, err := race.NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := ep.feed(eng, tr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if eng.Fed() != tr.Len() {
				t.Errorf("%s: Fed = %d, want %d", name, eng.Fed(), tr.Len())
			}
			rep, err := eng.Close()
			if err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
			doc, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if wantDoc == nil {
				if rep.Dynamic() == 0 || online.String() == "" {
					t.Fatalf("%s: no races; the comparison would be vacuous", name)
				}
				wantDoc, wantOnline = doc, online.String()
				continue
			}
			if !bytes.Equal(doc, wantDoc) {
				t.Errorf("%s: report JSON differs from %s's\n--- got ---\n%s\n--- want ---\n%s",
					name, entryPoints[0].name, doc, wantDoc)
			}
			if got := online.String(); got != wantOnline {
				t.Errorf("%s: online races differ from %s's\n--- got ---\n%s--- want ---\n%s",
					name, entryPoints[0].name, got, wantOnline)
			}
		}
	}
}

// TestEntryPointsAgreeOnIllFormedStream: when event i of the stream breaks
// a well-formedness rule, every entry point analyzes exactly events [0, i)
// — the online races are those of the prefix — and returns the same wrapped
// *trace.CheckError, and the engine is poisoned. Besides the entry points
// above, FeedBatch runs that put the bad event first, last and alone in its
// run, and one run of the whole stream.
func TestEntryPointsAgreeOnIllFormedStream(t *testing.T) {
	good := frontEndTrace()
	const bad = 20000 // mid-chunk, mid-run for every run length above
	ill := *good
	ill.Events = append(append(append([]race.Event{}, good.Events[:bad]...),
		race.Event{T: good.Events[bad].T, Op: race.OpRelease, Targ: 1 << 20}), good.Events[bad:]...)

	// What analyzing exactly the prefix delivers online.
	var prefix onlineLog
	eng, err := race.NewEngine(race.WithAnalysisNames(frontEndCells...), race.WithOnRace(prefix.record))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedBatch(good.Events[:bad]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if prefix.String() == "" {
		t.Fatal("no races before the ill-formed event; the comparison would be vacuous")
	}

	eps := append(entryPoints[:len(entryPoints):len(entryPoints)], []entryPoint{
		{"FeedBatch/bad-first", feedInRuns(bad)},
		{"FeedBatch/bad-last", feedInRuns(bad + 1)},
		{"FeedBatch/bad-alone", func(eng *race.Engine, tr *race.Trace) error {
			for _, run := range [][]race.Event{tr.Events[:bad], tr.Events[bad : bad+1], tr.Events[bad+1:]} {
				if err := eng.FeedBatch(run); err != nil {
					return err
				}
			}
			return nil
		}},
		{"FeedBatch/whole", feedInRuns(ill.Len())},
	}...)
	var wantMsg string
	for _, shape := range engineShapes[:2] {
		for _, ep := range eps {
			name := shape.name + "/" + ep.name
			var online onlineLog
			opts := slices.Concat(shape.opts, []race.Option{race.WithAnalysisNames(frontEndCells...), race.WithOnRace(online.record)})
			eng, err := race.NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			ferr := ep.feed(eng, &ill)
			var cerr *trace.CheckError
			if !errors.As(ferr, &cerr) {
				t.Fatalf("%s: error %v does not wrap a *trace.CheckError", name, ferr)
			}
			if cerr.Index != bad || cerr.Event != ill.Events[bad] {
				t.Errorf("%s: CheckError at %d (%v), want %d (%v)", name, cerr.Index, cerr.Event, bad, ill.Events[bad])
			}
			if wantMsg == "" {
				wantMsg = ferr.Error()
			} else if ferr.Error() != wantMsg {
				t.Errorf("%s: error %q, want %q", name, ferr, wantMsg)
			}
			if eng.Fed() != bad {
				t.Errorf("%s: Fed = %d, want the %d-event prefix", name, eng.Fed(), bad)
			}
			if err := eng.Feed(good.Events[bad]); err != ferr {
				t.Errorf("%s: poisoned engine's Feed returned %v", name, err)
			}
			if err := eng.FeedBatch(good.Events[bad:]); err != ferr {
				t.Errorf("%s: poisoned engine's FeedBatch returned %v", name, err)
			}
			if rep, err := eng.Close(); err != ferr || rep != nil {
				t.Errorf("%s: poisoned engine's Close returned %v, %v", name, rep, err)
			}
			if got := online.String(); got != prefix.String() {
				t.Errorf("%s: online races are not the prefix's\n--- got ---\n%s--- want ---\n%s", name, got, prefix.String())
			}
		}
	}
}

// TestFeedSourceFeedsEventsReadBeforeSourceError: a source that fails
// mid-stream does not strand the events already read in FeedSource's
// buffer.
func TestFeedSourceFeedsEventsReadBeforeSourceError(t *testing.T) {
	tr := frontEndTrace()
	boom := errors.New("decoder: truncated record")
	for _, n := range []int{0, 100, 8192, 10000} {
		eng, err := race.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedSource(&sliceSource{evs: tr.Events[:n], fail: boom}); err != boom {
			t.Fatalf("n=%d: FeedSource = %v, want the source's error", n, err)
		}
		if eng.Fed() != n {
			t.Errorf("n=%d: Fed = %d", n, eng.Fed())
		}
		if _, err := eng.Close(); err != nil {
			t.Errorf("n=%d: a source error poisoned the engine: %v", n, err)
		}
	}
}

// TestFeedAllocatesNothing: Feed's one-event run lives on the stack.
func TestFeedAllocatesNothing(t *testing.T) {
	eng, err := race.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ev := race.Event{T: 0, Op: race.OpRead, Targ: 0}
	if err := eng.Feed(ev); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { eng.Feed(ev) }); n != 0 {
		t.Errorf("Feed allocates %v times per event", n)
	}
}
