#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver measures it.

Runs the command of BENCHMARK.json on each workload with ten different
seeds and prints, per metric, the median and the distance between the first
and third quartile as a share of the median, next to the metric's bound.
A benchmark is steady when every spread is below a third of its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in contract["workloads"]])
    args = ap.parse_args()

    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in contract["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = contract["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(".", end="", flush=True, file=sys.stderr)
        print(file=sys.stderr)
        for m in contract["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"{workload:18} {m['name']:22} median {med:14.4f} {m['unit']:6} "
                  f"spread {100 * spread:6.2f} %  bound {100 * m['bound']:5.1f} %  "
                  f"spread/bound {share:5.2f}")
    print(f"largest spread/bound (setup_s aside): {worst:.2f}  (steady below 0.33)")


if __name__ == "__main__":
    main()
