#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed for each workload and prints, per metric,
the median and the distance between the first and third quartiles as a
share of the median (the spread BENCHMARK.json's bounds are checked
against). Run from the repository root:

    python3 perfbench/spread.py --workloads ycsb_read commit_dc --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads:
        values = {}
        verdicts = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            verdicts.append((seed, result["correct"], result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: (seed, correct, failed) = {verdicts}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER A THIRD" if spread > bound / 3 else "")
            print(f"  {name:40s} median {med:14.6g}  spread {spread:7.4f}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
