#!/usr/bin/env python3
"""Which per-layer counts repeat exactly.

    python3 perfbench/counters.py --seed N [--workload NAME ...] [--write]

For each workload, runs the traced benchmark twice with seed N and once
with seed N + 1. A count or word total (unit `count` or `words`) is
`exact` if all three runs agree, `exact_for_seed` if the two runs with
seed N agree but the other seed moves it, and `timing_like` otherwise.
With --write the classification is stored in perfbench/exact_counters.json,
which run.py compares every traced run against.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced(workload, seed):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: traced run failed" % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "words")}


def classify(workload, seed):
    a, b, other = traced(workload, seed), traced(workload, seed), traced(workload, seed + 1)
    entry = dict(seed=seed, exact={}, exact_for_seed={}, timing_like={})
    for k in sorted(a):
        if a[k] != b[k]:
            entry["timing_like"][k] = [a[k], b[k]]
        elif a[k] == other[k]:
            entry["exact"][k] = a[k]
        else:
            entry["exact_for_seed"][k] = a[k]
    return entry


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--write", action="store_true")
    a = ap.parse_args()
    table = {w: classify(w, a.seed) for w in a.workload or names}
    text = json.dumps(table, indent=1, sort_keys=True)
    print(text)
    if a.write:
        with open(os.path.join(HERE, "exact_counters.json"), "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
