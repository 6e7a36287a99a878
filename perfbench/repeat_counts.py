"""Do the per-layer counts repeat exactly? Across traced runs and seeds.

    python3 perfbench/repeat_counts.py --seeds 0 1 [--out FILE]

For each workload, runs the traced mode of `run.py` twice with the first
seed and once with the second, then compares every count-type per-layer
metric (calls, rows, bytes, steps, counts and their ratios). A count that
differs between the two runs of one seed is a defect of the tracer or of the
program's determinism, and the script exits 1. A count that differs between
seeds depends on the trajectory (episode ends, checkpoint text length) and is
listed as seed-dependent. The comparison is written to FILE as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from spread import declared_metrics, run_once  # noqa: E402

COUNT_SUFFIXES = (".calls", ".rows", ".bytes", ".steps", ".count", ".per_layout", ".rows_per_call")


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    result = run_once(workload, seed, seconds, trace=1)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="repeatability of per-layer counts")
    p.add_argument("--seeds", nargs=2, type=int, default=[0, 1])
    p.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    a, b = args.seeds
    seconds, _ = declared_metrics()
    report, unstable = {}, []
    for workload in args.workloads:
        first = traced_counts(workload, a, seconds)
        again = traced_counts(workload, a, seconds)
        other = traced_counts(workload, b, seconds)
        rows = {}
        for name in sorted(first):
            rows[name] = {f"seed{a}": first[name], f"seed{a}_again": again[name],
                          f"seed{b}": other[name],
                          "repeats": first[name] == again[name],
                          "seed_invariant": first[name] == other[name]}
            if first[name] != again[name]:
                unstable.append(f"{workload}: {name}")
        report[workload] = rows
        varying = [n for n, r in rows.items() if not r["seed_invariant"]]
        print(f"{workload}: {sum(r['repeats'] for r in rows.values())}/{len(rows)} counts "
              f"repeat across runs; seed-dependent: {', '.join(varying) or 'none'}", flush=True)
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(report, fp, indent=1, sort_keys=True)
    for name in unstable:
        print("NOT REPEATED", name)
    return 1 if unstable else 0


if __name__ == "__main__":
    sys.exit(main())
