#!/usr/bin/env python3
"""Noise calibration for disq-benchmark.

Runs the command of BENCHMARK.json on every workload with seeds
seed0, seed0+1, ... (workloads interleaved, so slow drifts of the host
spread over all of them) and prints, per end-to-end metric and workload,
the median, the quartiles of statistics.quantiles(values, n=4), and the
spread (q3 - q1) / median next to the metric's bound.

Run from the repository root:

    python3 disq-benchmark/calibrate.py --runs 10 --seed0 1
    python3 disq-benchmark/calibrate.py --runs 5 --workloads scan_1m

A run that fails or reports incorrect output stops the calibration with
exit status 1. Spreads at or above a third of their bound are flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="measurement window (default: run_seconds)")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w]
    seconds = opts.seconds or bench["run_seconds"]
    catalogue = bench["end_to_end"]

    values = {w: {m["name"]: [] for m in catalogue} for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(opts.runs):
        for w in workloads:
            result, wall = run_once(bench["command"], w, opts.seed0 + i, seconds)
            walls[w].append(wall)
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if k in ("latency_p50_us", "latency_tail_us", "throughput_per_s"))
            print(f"run {i + 1}/{opts.runs} {w} seed {opts.seed0 + i}: {wall:.1f} s {shown}",
                  file=sys.stderr)

    for w in workloads:
        print(f"\n{w}: {opts.runs} runs, wall median {statistics.median(walls[w]):.1f} s")
        print(f"  {'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in catalogue:
            xs = values[w][m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m["bound"]
            flag = ""
            if m["name"] != "setup_s" and not spread < bound / 3:
                flag = "  <- above bound/3"
            print(f"  {m['name']:<44} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.2f}{flag}")


if __name__ == "__main__":
    main()
