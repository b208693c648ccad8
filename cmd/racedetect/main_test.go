package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// racedetect is the binary under test, built once per test run by TestMain.
var racedetect string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "racedetect-bin")
	if err != nil {
		panic(err)
	}
	racedetect = filepath.Join(dir, "racedetect")
	if out, err := exec.Command("go", "build", "-o", racedetect, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building racedetect: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// goldenInputs writes the traces the golden cases read into dir: an
// avrora-like binary trace spanning several 8192-event chunks, the same
// stream as a racelog directory, Figure 1 as a text trace, an ill-formed
// text trace, and the binary trace cut mid-record.
func goldenInputs(t *testing.T, dir string) *race.Trace {
	t.Helper()
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(60000, 3)
	if tr.Len() < 2*8192 {
		t.Fatalf("trace has %d events; want several chunks", tr.Len())
	}
	var bin bytes.Buffer
	if err := race.WriteTrace(&bin, tr); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("avrora.bin", bin.Bytes())
	write("truncated.bin", bin.Bytes()[:bin.Len()-bin.Len()/3-5])

	log, err := store.Open(filepath.Join(dir, "journal"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var fig1 bytes.Buffer
	if err := race.WriteTraceText(&fig1, workload.Figure1().Trace); err != nil {
		t.Fatal(err)
	}
	write("figure1.txt", fig1.Bytes())
	write("illformed.txt", []byte("# threads=2 vars=1 locks=1 volatiles=0 classes=0\n0 wr 0 1\n1 rd 0 2\n0 rel 0 3\n"))
	write("noheader.txt", []byte("0 rel 0 0\n"))
	return tr
}

// throughput is the one line of racedetect's output that varies run to run.
var throughput = regexp.MustCompile(`\([0-9.]+ Mevents/s combined\)`)

// run executes racedetect in dir and renders what it did — the command,
// its exit status, stdout and stderr — with the throughput figure masked
// and addr (a loopback server's address) named $ADDR.
func run(t *testing.T, dir, addr string, args ...string) string {
	t.Helper()
	cmd := exec.Command(racedetect, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	line := "racedetect " + strings.Join(args, " ")
	out := "$ " + line + "\nexit " + strconv.Itoa(code) + "\n--- stdout ---\n" + stdout.String() + "--- stderr ---\n" + stderr.String()
	out = throughput.ReplaceAllString(out, "(X Mevents/s combined)")
	if addr != "" {
		out = strings.ReplaceAll(out, addr, "$ADDR")
	}
	return out
}

// loopback serves a fresh in-memory raced on a loopback port until the
// test ends.
func loopback(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{IdleTimeout: -1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(lis) // returns once the listener closes
	t.Cleanup(func() {
		lis.Close()
		srv.Close()
	})
	return srv, lis.Addr().String()
}

// flushBarriers is the number of flush barriers srv has acknowledged.
func flushBarriers(srv *server.Server) string {
	for _, s := range srv.Registry().Snapshot() {
		if s.Name == "raced_flush_ack_seconds" && s.Kind == obs.KindHistogram {
			return "server acked " + strconv.FormatUint(s.Hist.Count, 10) + " flush barriers\n"
		}
	}
	return "server has no flush metric\n"
}

// TestGoldenOutput pins racedetect's output, local and remote, byte for
// byte against testdata/*.golden (only the throughput figure is masked).
func TestGoldenOutput(t *testing.T) {
	dir := t.TempDir()
	tr := goldenInputs(t, dir)

	local := []struct {
		name string
		args []string
	}{
		{"local-multi", []string{"-analysis", "FTO-HB,ST-WCP,ST-DC,ST-WDC", "-max", "3", "avrora.bin"}},
		{"local-online", []string{"-analysis", "FTO-HB,ST-WDC,Unopt-DC", "-online", "-q", "avrora.bin"}},
		{"local-vindicate", []string{"-analysis", "ST-WDC", "-vindicate", "-max", "6", "avrora.bin"}},
		{"text-vindicate", []string{"-analysis", "ST-WDC,FTO-HB", "-text", "-vindicate", "-online", "figure1.txt"}},
		{"racelog", []string{"-analysis", "ST-WDC,FT2", "-max", "2", "journal"}},
		{"illformed", []string{"-analysis", "FTO-HB", "-text", "-online", "illformed.txt"}},
		{"noheader", []string{"-text", "noheader.txt"}},
		{"truncated", []string{"-analysis", "ST-WDC", "-online", "-q", "truncated.bin"}},
		{"unknown-analysis", []string{"-analysis", "NOPE", "avrora.bin"}},
		{"resume-without-remote", []string{"-resume", "s000001", "avrora.bin"}},
		{"retry-without-remote", []string{"-retry", "avrora.bin"}},
		{"flush-every-without-remote", []string{"-flush-every", "5000", "avrora.bin"}},
		{"trace-without-remote", []string{"-analysis", "ST-WDC", "-trace", "avrora.bin"}},
		{"connect-timeout-without-remote", []string{"-connect-timeout", "1s", "-q", "avrora.bin"}},
	}
	for _, tc := range local {
		t.Run(tc.name, func(t *testing.T) {
			golden(t, tc.name, run(t, dir, "", tc.args...))
		})
	}

	t.Run("remote", func(t *testing.T) {
		srv, addr := loopback(t)
		out := run(t, dir, addr, "-remote", addr, "-analysis", "FTO-HB,ST-WDC", "-max", "3", "avrora.bin")
		golden(t, "remote", out+flushBarriers(srv))
	})

	// A session the server already holds a prefix of: racedetect skips
	// that prefix of the file, feeds the rest with a flush barrier every
	// -flush-every events, and prints the report of the whole stream.
	for _, tc := range []struct {
		name  string
		input string
		flags []string
	}{
		{"remote-resume", "avrora.bin", []string{"-flush-every", "5000", "-max", "3"}},
		{"remote-resume-racelog", "journal", []string{"-retry", "-flush-every", "3000", "-q"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := loopback(t)
			sess, err := srv.OpenSession(server.SessionConfig{Analyses: []string{"FTO-HB", "ST-WDC"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Feed(append([]race.Event(nil), tr.Events[:1234]...)); err != nil {
				t.Fatal(err)
			}
			if err := sess.Flush(); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-remote", addr, "-resume", sess.ID}, tc.flags...)
			out := run(t, dir, addr, append(args, tc.input)...)
			golden(t, tc.name, out+flushBarriers(srv))
		})
	}
}

// golden compares got with testdata/name.golden.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatalf("%v\n--- got ---\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// sliceSource is an eventSource over a slice that ends with io.EOF, or with
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

// recordingSink is a race.EventSink that keeps what it is fed, run by run,
// and the stream offset of every flush barrier.
type recordingSink struct {
	evs     []race.Event
	runs    []int
	flushes []int
}

func (s *recordingSink) FeedBatch(evs []race.Event) error {
	s.evs = append(s.evs, evs...)
	s.runs = append(s.runs, len(evs))
	return nil
}

func (s *recordingSink) Close() (*race.Report, error) { return nil, nil }

func (s *recordingSink) Flush() error {
	s.flushes = append(s.flushes, len(s.evs))
	return nil
}

// TestDrain: drain feeds every event after the skipped prefix — those read
// before a source error included — in runs of at most feedChunk events,
// counts them, and puts a flush barrier after every flushEvery-th fed event
// and nowhere else, as feeding the events one at a time would.
func TestDrain(t *testing.T) {
	evs := make([]race.Event, 20000)
	for i := range evs {
		evs[i] = race.Event{T: 0, Op: race.OpWrite, Targ: uint32(i)}
	}
	boom := errors.New("decoder: truncated record")
	for _, tc := range []struct {
		n, skip, flushEvery int
		fail                error
	}{
		{n: 0}, {n: 1}, {n: 8192}, {n: 20000}, {n: 20000, skip: 1234},
		{n: 20000, flushEvery: 5000}, {n: 20000, flushEvery: 3000, skip: 1234},
		{n: 20000, flushEvery: 1}, {n: 16384, flushEvery: 8192}, {n: 100, flushEvery: 7},
		{n: 0, fail: boom}, {n: 100, fail: boom}, {n: 8192, fail: boom},
		{n: 10000, fail: boom, flushEvery: 3000, skip: 17},
	} {
		name := fmt.Sprintf("n=%d/skip=%d/flushEvery=%d/fail=%v", tc.n, tc.skip, tc.flushEvery, tc.fail != nil)
		var sink recordingSink
		fed, err := drain(&sliceSource{evs: evs[:tc.n], fail: tc.fail}, &sink, uint64(tc.skip), tc.flushEvery, sink.Flush)
		if err != tc.fail {
			t.Errorf("%s: drain = %v, want %v", name, err, tc.fail)
		}
		want := evs[min(tc.skip, tc.n):tc.n]
		if fed != len(want) || !slices.Equal(sink.evs, want) {
			t.Errorf("%s: fed %d events (%d reached the sink), want the %d after the skipped prefix", name, fed, len(sink.evs), len(want))
		}
		for _, r := range sink.runs {
			if r < 1 || r > feedChunk {
				t.Errorf("%s: a run of %d events", name, r)
			}
		}
		var wantFlushes []int
		for off := tc.flushEvery; tc.flushEvery > 0 && off <= len(want); off += tc.flushEvery {
			wantFlushes = append(wantFlushes, off)
		}
		if !slices.Equal(sink.flushes, wantFlushes) {
			t.Errorf("%s: flushes at %v, want %v", name, sink.flushes, wantFlushes)
		}
	}
}
