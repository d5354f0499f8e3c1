#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for every
end-to-end metric, its median and its quartile spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the bound BENCHMARK.json gives the metric. Seeds
are 1..N. A spread counts as steady below a third of its bound. With
--traced N it also makes N traced runs per workload and reports the median
tracing overhead.

Run from the repository root:
    python3 compile_bench/steadiness.py --seeds 10 [--workloads a,b] [--traced 3]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "compile_bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct: {out[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        seeds = range(1, args.seeds + 1)
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        print(f"\n{workload}: seeds 1-{args.seeds}, {args.seconds} s each")
        print(f"{'metric':<18}{'median':>14}{'spread':>9}{'bound':>8}  ok")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = spread < bound / 3
            print(f"{name:<18}{med:>14.6g}{spread:>9.4f}{bound:>8.3f}  {'yes' if ok else 'NO'}")
        if args.traced:
            overheads = [run(workload, seed, args.seconds, 1)["trace.overhead"]
                         for seed in seeds[: args.traced]]
            print(f"tracing overhead (median of {args.traced}): {statistics.median(overheads):+.4f}")


if __name__ == "__main__":
    main()
