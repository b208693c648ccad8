package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The A/A harness answers one question before anybody trusts a bound: do
// two sets of runs of the very same binary agree? Set A and set B are
// interleaved run by run (A seed 1, B seed 1, A seed 2, …), every run a
// fresh process exactly as the acceptance driver starts it, seeds 1..n in
// both sets.

// aaPair is one <workload>/<metric> comparison.
type aaPair struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        quartet `json:"set_a"`
	B        quartet `json:"set_b"`
	// Diff is |median B − median A| ÷ median A; Worse is the same
	// difference signed so that positive means B reads worse than A.
	Diff  float64 `json:"median_diff"`
	Worse float64 `json:"b_worse_by"`
	// SpreadA/B are (q3 − q1) ÷ median within each set, over its seeds:
	// shown, not judged.
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	OK      bool    `json:"ok"`
	// Raw is the same comparison of the same runs on the box's own clock,
	// for the timings: what the calibrated clock (calib.go) bought.
	Raw *aaRaw `json:"uncalibrated,omitempty"`
}

type aaRaw struct {
	MedianA float64 `json:"median_a"`
	MedianB float64 `json:"median_b"`
	Diff    float64 `json:"median_diff"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
}

type aaDoc struct {
	Environment environment `json:"environment"`
	RunsPerSet  int         `json:"runs_per_set"`
	RunSeconds  float64     `json:"run_seconds"`
	// Rule is what OK means for every pair.
	Rule  string   `json:"rule"`
	Pairs []aaPair `json:"pairs"`
	OK    bool     `json:"ok"`
}

// runOnce starts this binary for one end-to-end run and returns the metrics
// of its result line and, from the document it wrote to docPath, the same
// run's uncalibrated timings.
func runOnce(exe, workload string, seed int, seconds float64, dataRoot, docPath string) (map[string]metricValue, map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--datadir", dataRoot, "--out", docPath)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	var doc struct {
		Run runDoc `json:"run"`
	}
	raw, err := os.ReadFile(docPath)
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: result document: %w", workload, seed, err)
	}
	return res.Metrics, doc.Run.Raw, nil
}

// worseBy is (b − a) ÷ a, signed so that positive means b reads worse.
func worseBy(a, b float64, better string) float64 {
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func runAA(n int, seconds float64, dataRoot, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	// values[set][workload/metric] collects one value per seed; raws the
	// same for the uncalibrated timings.
	values, raws := [2]map[string][]float64{{}, {}}, [2]map[string][]float64{{}, {}}
	docPath := filepath.Join(filepath.Dir(out), "aa-run.json")
	defer os.Remove(docPath)
	for seed := 1; seed <= n; seed++ {
		for set := range values {
			for _, w := range workloadDefs() {
				got, raw, err := runOnce(exe, w.Name, seed, seconds, dataRoot, docPath)
				if err != nil {
					return err
				}
				var line []string
				for _, m := range endToEnd {
					key := w.Name + "/" + m.Name
					values[set][key] = append(values[set][key], got[m.Name].Value)
					if v, ok := raw[m.Name]; ok {
						raws[set][key] = append(raws[set][key], v)
					}
					line = append(line, fmt.Sprintf("%s %.5g", m.Name, got[m.Name].Value))
				}
				fmt.Printf("set %c seed %d %s: %s\n", 'A'+set, seed, w.Name, strings.Join(line, ", "))
			}
		}
	}

	doc := aaDoc{Environment: readEnvironment(dataRoot), RunsPerSet: n, RunSeconds: seconds, OK: true,
		Rule: "ok = set medians differ by at most half the bound"}
	fmt.Printf("\n%-44s %12s %12s %7s %8s %8s %6s   %s\n", "pair", "median A", "median B", "diff", "spread A", "spread B", "bound", "uncalibrated: diff, spreads")
	for _, w := range workloadDefs() {
		for _, m := range endToEnd {
			a, b := values[0][w.Name+"/"+m.Name], values[1][w.Name+"/"+m.Name]
			p := aaPair{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				A: quartetOf(a), B: quartetOf(b), SpreadA: spread(a), SpreadB: spread(b)}
			p.Worse = worseBy(p.A.Median, p.B.Median, m.Better)
			p.Diff = max(p.Worse, -p.Worse)
			p.OK = p.Diff <= m.Bound/2
			uncal := ""
			if ra, rb := raws[0][w.Name+"/"+m.Name], raws[1][w.Name+"/"+m.Name]; len(ra) > 0 {
				d := worseBy(median(ra), median(rb), m.Better)
				p.Raw = &aaRaw{MedianA: median(ra), MedianB: median(rb), Diff: max(d, -d), SpreadA: spread(ra), SpreadB: spread(rb)}
				uncal = fmt.Sprintf("   %6.2f%% %7.2f%% %7.2f%%", 100*p.Raw.Diff, 100*p.Raw.SpreadA, 100*p.Raw.SpreadB)
			}
			doc.OK = doc.OK && p.OK
			doc.Pairs = append(doc.Pairs, p)
			verdict := ""
			if !p.OK {
				verdict = "  <-- FAILS"
			}
			fmt.Printf("%-44s %12.6g %12.6g %6.2f%% %7.2f%% %7.2f%% %5.0f%%%s%s\n", w.Name+"/"+m.Name,
				p.A.Median, p.B.Median, 100*p.Diff, 100*p.SpreadA, 100*p.SpreadB, 100*m.Bound, uncal, verdict)
		}
	}
	if err := writeJSON(out, doc); err != nil {
		return err
	}
	fmt.Printf("A/A record written to %s\n", out)
	if !doc.OK {
		return fmt.Errorf("two sets of runs of the same binary disagree beyond the rule: %s", doc.Rule)
	}
	return nil
}
