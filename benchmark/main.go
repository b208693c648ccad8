// Command benchmark is this repository's performance benchmark: five
// fixed-work workloads reporting six end-to-end metrics, and a traced run
// that prices every layer from outside (see README.md in this directory).
//
//	bash benchmark/run.sh --workload detect-flat --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

// environment is recorded in every output, so that two numbers are only
// compared when they were measured alike.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       uint64  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	DataDir    string  `json:"datadir"`
	DataDirFS  string  `json:"datadir_fs"`
	Load1      float64 `json:"load1_at_start"`
}

func readEnvironment(dataDir string) environment {
	gogc := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(gogc)
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc[0].Value.Uint64(),
		GoVersion: runtime.Version(), DataDir: dataDir, DataDirFS: fsName(dataDir), Load1: -1,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &env.Load1)
	}
	return env
}

// fsName names the filesystem holding dir: journal numbers measured on a
// tmpfs and on a virtual disk are different numbers.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// result is the one-line summary the acceptance driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultOf(defs []metricDef, values map[string]float64, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return r
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "trace generation seed (feeds nothing else)")
		seconds = flag.Float64("seconds", 15, "cap on the timed passes of an end-to-end run: once it has gone by (and a dozen passes are in) the run stops short of the workload's pass count")
		passes  = flag.Int("passes", 0, "timed passes of an end-to-end run, instead of the workload's own count (for noise studies)")
		traced  = flag.Int("trace", 0, "1 = the traced per-layer run, 0 = the end-to-end run")
		quick   = flag.Bool("quick", false, "tiny traces, one pass: checks the plumbing, measures nothing")
		aa      = flag.Int("aa", 0, "run two interleaved sets of N runs of every workload and compare them")
		dataDir = flag.String("datadir", filepath.Join(".bench_build", "data"), "where journals live (a fresh subdirectory, removed at exit)")
		out     = flag.String("out", "", "file for the full result document (default .bench_build/out/<workload>-trace<N>.json); with --aa, the A/A record")
	)
	flag.Parse()
	var err error
	if *aa > 0 {
		if *out == "" {
			*out = filepath.Join(".bench_build", "out", "AA.json")
		}
		err = runAA(*aa, *seconds, *dataDir, *out)
	} else {
		err = run(os.Stdout, *name, *seed, *seconds, *passes, *traced, *quick, *dataDir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// run does one end-to-end or traced run of a workload, printing every
// metric by name and, as the last line, the result object. A failed
// operation is an error after that line.
func run(stdout io.Writer, name string, seed int64, seconds float64, passes, traced int, quick bool, dataRoot, out string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	dataDir, err := os.MkdirTemp(dataRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	if out == "" {
		out = filepath.Join(".bench_build", "out", fmt.Sprintf("%s-trace%d.json", w.name, traced))
	}

	env := readEnvironment(dataDir)
	fmt.Fprintf(stdout, "environment: nproc %d, GOMAXPROCS %d, GOGC %d, %s, journals on %s (%s)\n",
		env.NProc, env.GOMAXPROCS, env.GOGC, env.GoVersion, env.DataDirFS, env.DataDir)
	if env.Load1 > float64(env.NProc) {
		fmt.Fprintf(stdout, "WARNING: 1-minute load average %.2f exceeds %d cores; timings will be noisy\n", env.Load1, env.NProc)
	}

	var res result
	var doc any
	if traced == 1 {
		ld, err := runLedger(w, seed, quick, dataDir, filepath.Join(filepath.Dir(out), "spans-"+w.name+".json"), stdout)
		if err != nil {
			return err
		}
		res, doc = resultOf(perLayer(), ld.Metrics, ld.Attempted, ld.Failed), ld
	} else {
		rd, err := runWorkload(w, seed, seconds, passes, quick, dataDir, stdout)
		if err != nil {
			return err
		}
		res, doc = resultOf(endToEnd, rd.Metrics, rd.Attempted, rd.Failed), rd
	}
	if err := writeJSON(out, map[string]any{"environment": env, "run": doc}); err != nil {
		return err
	}
	return finish(stdout, res)
}

// finish prints the result line and turns a failed operation into an error.
func finish(stdout io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed the oracle", res.Failed, res.Attempted)
	}
	return nil
}
