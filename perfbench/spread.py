#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
inter-quartile spread (Q3 - Q1 as a share of the median).

Usage (from the repository root):
    python3 perfbench/spread.py <workload> [runs] [first_seed] [trace]
"""
import json
import statistics
import subprocess
import sys

workload = sys.argv[1]
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
trace = sys.argv[4] if len(sys.argv) > 4 else "0"
bench = json.load(open("BENCHMARK.json"))
values = {}
for seed in range(first, first + runs):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", trace]
    out = subprocess.run(cmd, capture_output=True, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit(f"seed {seed}: exit {out.returncode}, no result\n{out.stderr[-2000:]}")
    print(f"seed {seed}: exit {out.returncode} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    for name, metric in result["metrics"].items():
        values.setdefault(name, []).append(metric["value"])
bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
for name, vals in values.items():
    med = statistics.median(vals)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
    spread = (q[2] - q[0]) / med if med else float("nan")
    bound = bounds.get(name)
    flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                     ("  WITHIN BOUND" if spread <= bound else "  OVER BOUND"))
    print(f"{name:<36} median={med:<14.6g} spread={spread:.4f} bound={bound}{flag}")
    print("    " + " ".join(f"{v:.4g}" for v in vals))
