#!/usr/bin/env python3
"""Runs the benchmark over several seeds and keeps each run's result line.

    python3 perfbench/collect.py OUT_DIR [--workloads a,b] [--seeds 1-10]
                                 [--seconds 10] [--trace 0]

Run from the repository root. Each run's last output line (the JSON result)
is written to OUT_DIR/<workload>/seed-<n>.json; the runs of one workload go
one after another, on one process at a time. Compare two such directories
with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCHMARK = "BENCHMARK.json"


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    failed = False
    for workload in args.workloads.split(","):
        os.makedirs(os.path.join(args.out, workload), exist_ok=True)
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed = True
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            with open(os.path.join(args.out, workload, f"seed-{seed}.json"), "w") as f:
                json.dump(result, f)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
