#!/usr/bin/env python3
"""Cuts a long series of passes into run-sized windows and compares how far
the windows' median passes spread on the box's own clock and on the
calibrated one (calib.go).

    python3 benchmark/noise/windows.py benchmark/noise/*.json

Each input is the --out document of one long end-to-end run, e.g.
    bash benchmark/run.sh --workload detect-flat --passes 100000 --seconds 240 \
        --out benchmark/noise/detect-flat.json
A window is as many consecutive passes as a normal run of that workload
makes. The spread is (q3 - q1) / median over the windows, the quartiles as
statistics.quantiles(n=4) gives them: the figure the acceptance driver holds
against a metric's bound.
"""
import json
import statistics
import sys

REF = 0.1  # refKernelSeconds
PASSES = {"detect-flat": 22, "detect-nested": 12, "fanout15-par": 14,
          "ingest-direct": 22, "ingest-fleet-durable": 14}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def windows(values, size):
    return [statistics.median(values[i:i + size]) for i in range(0, len(values) - size + 1, size)]


print(f"{'workload':22} {'series':22} {'windows':>7} {'raw spread':>10} {'raw range':>10} {'cal spread':>10} {'cal range':>10}")
for path in sys.argv[1:]:
    run = json.load(open(path))["run"]
    size = PASSES[run["workload"]]
    # wall time is corrected by the kernel's wall time, CPU-like figures by
    # its thread CPU time (calib.go)
    for key, ref in (("pass_wall_s", "pass_ref_wall_s"), ("pass_cpu_ns", "pass_ref_cpu_s"),
                     ("pass_flush_ack_p50_ms", "pass_ref_cpu_s")):
        raw, refs = run[key], run[ref]
        cal = [x * REF / r for x, r in zip(raw, refs)]
        row = [run["workload"], key]
        cells = []
        for series in (raw, cal):
            w = windows(series, size)
            cells += [spread(w), (max(w) - min(w)) / statistics.median(w)]
        n = len(windows(raw, size))
        print(f"{row[0]:22} {row[1]:22} {n:7d} " + " ".join(f"{100 * c:9.1f}%" for c in cells))
