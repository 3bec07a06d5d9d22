#!/usr/bin/env python3
"""Summarises one set of benchmark results, or compares two.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory is laid out as collect.py writes it. For every workload and
metric the tool prints the median, the quartiles and the spread (quartile
distance over the median). With two sets it also prints the move of the
median in the metric's worse direction, as a share of the base median, and
flags it:

  regressed   the median got worse by more than the metric's bound
  improved    the median got better by more than the bound
  unresolved  a set's spread is wider than the bound, so a move inside
              it cannot be told from noise
  held        none of these

Metrics without a bound (the per-layer ones) are only summarised. The
share of failed operations is compared exactly. Run from the repository
root (bounds and directions come from BENCHMARK.json).
"""

import glob
import json
import os
import statistics
import sys

BENCHMARK = "BENCHMARK.json"


def load(directory):
    """{workload: [result, ...]} from DIR/<workload>/*.json."""
    sets = {}
    for path in sorted(glob.glob(os.path.join(directory, "*", "*.json"))):
        workload = os.path.basename(os.path.dirname(path))
        with open(path) as f:
            try:
                result = json.load(f)
            except json.JSONDecodeError:
                print(f"skipping {path}: not a result line", file=sys.stderr)
                continue
        sets.setdefault(workload, []).append(result)
    return sets


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = load(sys.argv[1])
    new = load(sys.argv[2]) if len(sys.argv) == 3 else None
    verdicts = []
    for workload in sorted(base):
        runs = base[workload]
        incorrect = sum(1 for r in runs if not r["correct"])
        failed, attempted = failed_share(runs)
        print(f"== {workload}: {len(runs)} run(s), {incorrect} incorrect, "
              f"{failed}/{attempted} operations failed")
        if new is not None:
            if workload not in new:
                print("   (missing from the second set)")
                continue
            nfailed, nattempted = failed_share(new[workload])
            same = failed * nattempted == nfailed * attempted
            print(f"   second set: {len(new[workload])} run(s), {nfailed}/{nattempted} failed"
                  f" — failed share {'equal' if same else 'DIFFERS'}")
            if not same:
                verdicts.append((workload, "failed share", "differs"))
        names = [n for n in runs[0]["metrics"]]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, q1, q3, spread = summary(values)
            spec = specs.get(name, {})
            bound = spec.get("bound")
            line = (f"   {name:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:6.1%} {unit}")
            if bound is not None:
                line += f"  (bound {bound:.0%})"
            if new is not None and name in new[workload][0]["metrics"]:
                nvalues = [r["metrics"][name]["value"] for r in new[workload]]
                nmed, _, _, nspread = summary(nvalues)
                sign = 1 if spec.get("better") == "lower" else -1
                worse = sign * (nmed - med) / med
                line += f"\n   {'':<28} second median {nmed:<12.6g} spread {nspread:6.1%}  worse by {worse:+.1%}"
                if bound is not None:
                    if spread > bound or nspread > bound:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "regressed"
                    elif worse < -bound:
                        verdict = "improved"
                    else:
                        verdict = "held"
                    line += f"  → {verdict}"
                    if verdict in ("regressed", "unresolved"):
                        verdicts.append((workload, name, verdict))
            print(line)
    if new is not None:
        print("== verdict:", "; ".join(f"{w} {n} {v}" for w, n, v in verdicts) or "every bounded metric held or improved")


if __name__ == "__main__":
    main()
