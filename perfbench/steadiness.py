#!/usr/bin/env python3
"""Measure how steady the benchmark is.

Runs the benchmark command of BENCHMARK.json once per seed on every
workload (tracing off), then prints, for every end-to-end metric, its
median and the spread between the first and third quartile as a share
of the median (Python's statistics.quantiles(values, n=4)), next to the
metric's bound. Writes the raw values and spreads to
.bench_out/steadiness.json.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [workload ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {}
    for name in workloads:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: outputs failed the checks: {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {values[m][-1]:.6g}" for m in bounds), flush=True)
        rows = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[m] = {"median": med, "spread": spread, "bound": bounds[m], "values": vals}
            flag = "ok" if spread < bounds[m] / 3 else ("within bound" if spread <= bounds[m] else "TOO NOISY")
            print(f"  {name:<11} {m:<18} median {med:<14.6g} spread {spread:7.4f}  bound {bounds[m]:<5} {flag}")
        report[name] = rows
    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/steadiness.json", "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
