"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

    python3 perfbench/spread.py --workloads grid_bridge cartpole_d5 --seeds 0-9 --out FILE
    python3 perfbench/spread.py --compare FILE_A FILE_B

The first form runs `run.py` once per workload and seed (timed mode,
BENCHMARK.json's run_seconds), then prints for each metric the median, the
quartiles and the spread: the distance between the first and third quartile
as a share of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound. With --out the medians, spreads and every run's result are
written to FILE as JSON.

The second form compares two such files: for each workload and metric, how
much worse the second set's median is than the first's, as a share of the
first, against the bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def declared_metrics() -> tuple[int, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    return bench["run_seconds"], {m["name"]: m for m in bench["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One `run.py` invocation: its result line, with the report lines
    before it (machine, inputs, samples, checks) as `notes`."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    if not result["correct"]:
        print(out.stdout[-3000:], file=sys.stderr)
    return result


def measure(args) -> int:
    seconds, declared = declared_metrics()
    summary: dict = {}
    all_ok = True
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, seconds)
            runs.append({"seed": seed, **res})
            all_ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        rows = {}
        for name, entry in declared.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": entry["bound"]}
            print(f"  {name:20s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  bound {entry['bound']}  "
                  f"{'ok' if spread < entry['bound'] / 3 else 'WIDE'}", flush=True)
        summary[workload] = {"metrics": rows, "runs": runs}
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(summary, fp, indent=1, sort_keys=True)
    return 0 if all_ok else 1


def compare(path_a: str, path_b: str) -> int:
    _, declared = declared_metrics()
    with open(path_a) as fp:
        set_a = json.load(fp)
    with open(path_b) as fp:
        set_b = json.load(fp)
    failures = 0
    for workload in sorted(set_a.keys() & set_b.keys()):
        print(workload)
        for name, entry in declared.items():
            a = set_a[workload]["metrics"][name]
            b = set_b[workload]["metrics"][name]
            sign = 1 if entry["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            ok = worse <= entry["bound"] and (name == "setup_s" or max(
                a["spread"], b["spread"]) <= entry["bound"])
            failures += not ok
            print(f"  {name:20s} median A {a['median']:12.6g}  B {b['median']:12.6g}  "
                  f"B worse by {worse:+.4f}  spreads {a['spread']:.4f} {b['spread']:.4f}  "
                  f"bound {entry['bound']}  {'ok' if ok else 'OUT'}")
    return 1 if failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="end-to-end spread over seeds")
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--out", default=None)
    p.add_argument("--compare", nargs=2, metavar=("FILE_A", "FILE_B"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workloads:
        p.error("--workloads or --compare is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
