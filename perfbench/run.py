"""logicrl benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload grid_bridge --seed 0 --seconds 55 --trace 0

Run from the repository root. Every unit of work runs in a fresh Python
process (`unit.py`) with one BLAS thread, through the public harness calls
that `logicrl train` and `logicrl eval` use. Timed figures are in
host-speed-corrected seconds (`hostclock.py`): each stretch of the run is
scaled by how fast a fixed reference kernel ran next to it, so a co-tenant
slowing the shared core does not read as a slower program; the plain
wall-clock figures are printed too. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, where the
metrics are the `end_to_end` (timed) or `per_layer` (traced) entries of
BENCHMARK.json. The lines before it, and a result file under
`perfbench/_work/results/`, hold the machine, the inputs, every sample and
the output checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
UNIT = os.path.join(HERE, "unit.py")

# A unit is one seed of the shipped experiment in a fresh process: the full
# `harness.train_one_seed` run, then `harness.run_eval` on each of its
# checkpoints, as the acceptance suite's rescoring does. Apart from `seeds`
# and `out`, every key of the shipped config is kept.
WORKLOADS = {
    "grid_bridge": "configs/grid_bridge.cfg",
    "cartpole_d5": "configs/cartpole_delayed.cfg",
}
# A timed run starts with this many set-up probes: fresh processes that run
# `train_one_seed` for one iteration, so set-up is sampled several times
# per run; each probe's first train_log.csv row must equal the unit's.
# Rescoring then fills the rest of --seconds, so the noisiest figures, the
# checkpoint evaluation times, get the most samples the run has room for.
SETUP_PROBES = 5
UNIT_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1


# -- machine and inputs ---------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_sha256() -> str:
    """Digest of the program's sources and configs, for checkouts without git."""
    digest = hashlib.sha256()
    for sub in ("src", "configs"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, sub))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fp:
                    digest.update(fp.read())
    return digest.hexdigest()


def machine_info() -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


# -- units ----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_unit(mode: str, key: str, args: list[str], deadline: float) -> dict:
    """One fresh process; returns its result, or a failure record."""
    result_path = os.path.join(WORK, "units", f"{key}.json")
    log_path = os.path.join(WORK, "units", f"{key}.log")
    t0 = time.monotonic()
    cmd = [sys.executable, UNIT, mode, "--t0", repr(t0), "--result", result_path, *args]
    timeout = max(5.0, min(UNIT_TIMEOUT_S, deadline - t0))
    try:
        with open(log_path, "w") as log:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"{key}: timed out after {timeout:.0f} s"], "crashed": True}
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path) as fp:
            tail = fp.read()[-2000:]
        return {"errors": [f"{key}: exit code {proc.returncode}: {tail}"], "crashed": True}
    with open(result_path) as fp:
        return json.load(fp)


def rate(units: list[dict], clock: str) -> float:
    return sum(u["steps"] for u in units) / sum(u["times"][clock]["loop_s"] for u in units)


def timing_metrics(timed: list[dict], probes: list[dict], clock: str) -> tuple[dict, list]:
    """The timing metrics from one clock of the units' results: "corrected"
    (host-speed-corrected seconds, see hostclock.py) or "wall"."""
    evals = sorted(e["s"][clock] for u in timed for e in u["evals"])
    setups = [u["times"][clock]["setup_s"] for u in timed + probes
              if not u.get("crashed") and not u["errors"]]
    return {
        "setup_s": statistics.median(setups),
        "train_steps_per_s": rate(timed, clock),
        "run_wall_s": statistics.median(u["times"][clock]["run_s"] for u in timed),
        "ckpt_evals_per_s": len(evals) / sum(evals),
        "ckpt_eval_p50_s": statistics.median(evals),
    }, evals


def run_workload(config, args, deadline, report) -> dict:
    """A timed run: set-up probes, then one unit that rescores its run while
    another evaluation ends within --seconds. A traced run: one untraced and one
    traced unit of the same seed, one rescoring pass each, so the traced
    unit's counts repeat exactly and the two rates give the overhead."""
    start = time.monotonic()
    common = ["--config", config, "--seed", str(args.seed)]
    probes = []
    for k in range(0 if args.trace else SETUP_PROBES):
        out = os.path.join(WORK, "runs", f"p{k}")
        probes.append(run_unit("train", f"p{k}", [*common, "--steps", "1", "--out", out],
                               deadline))
        shutil.rmtree(out, ignore_errors=True)
    plan = [(False, 0.0), (True, 0.0)] if args.trace else [(False, start + args.seconds)]
    units: list[dict] = []
    for k, (traced, until) in enumerate(plan):
        out = os.path.join(WORK, "runs", f"u{k}")
        unit_args = [*common, "--rescore-until", repr(until), "--out", out]
        if traced:
            unit_args += ["--trace", "--spans", os.path.join(WORK, "trace", f"u{k}.spans.csv")]
        res = run_unit("train", f"u{k}", unit_args, deadline)
        res["traced"] = traced
        units.append(res)
        shutil.rmtree(out, ignore_errors=True)

    # criterion 8 from outside: every process with the same seed writes the
    # same bytes, traced ones included
    good = [u for u in units if not u.get("crashed")]
    if good:
        ref = good[0]
        for u in good[1:]:
            if (u["metrics_sha256"], u["train_log_sha256"]) != \
                    (ref["metrics_sha256"], ref["train_log_sha256"]):
                u["errors"].append("metrics.csv/train_log.csv differ from the first unit's")
        for p in probes:
            if not p.get("crashed") and p["train_log_head"] != ref["train_log_head"]:
                p["errors"].append("first train_log.csv row differs from the unit's")
    # a unit for the failed ratio is one training run (a probe included) or
    # one checkpoint eval; a crashed process fails its run
    runs = probes + units
    report["probes"], report["units"] = probes, units
    report["attempted"] = sum(1 + len(u.get("evals", [])) for u in runs)
    report["failed"] = sum(1 if u.get("crashed") else
                           bool(u["errors"]) + sum(bool(e["errors"]) for e in u["evals"])
                           for u in runs)
    ok = [u for u in good if not u["errors"] and not any(e["errors"] for e in u["evals"])]
    if not ok:
        return {}
    timed = [u for u in ok if not u["traced"]] or ok
    m, evals = timing_metrics(timed, probes, "corrected")
    m["checkpoint_bytes"] = statistics.median(b for u in timed for b in u["checkpoint_bytes"])
    m["peak_rss_mb"] = statistics.median(u["peak_rss_mb"] for u in timed)
    report["wall_clock"], _ = timing_metrics(timed, probes, "wall")
    report["ckpt_eval_samples"] = evals
    report["loop_cpu_share"] = statistics.median(u["loop_cpu_share"] for u in timed)
    report["host_probes"] = [u["clock"] for u in timed + probes if not u.get("crashed")]
    report["metrics_sha256"] = ok[0]["metrics_sha256"]
    report["numpy"] = ok[0]["numpy"]
    report["logicrl_file"] = ok[0]["logicrl_file"]
    traced = [u for u in ok if u["traced"]]
    if traced:
        untraced = [u for u in ok if not u["traced"]]
        m["_layers"] = {**traced[0]["layers"],
                        "trace.overhead": rate(untraced, "wall") / rate(traced, "wall") - 1.0}
    return m


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="logicrl benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    config = WORKLOADS[args.workload]
    for needed in ("src/logicrl/harness.py", config, "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}: run from a full logicrl checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        declared = json.load(fp)["per_layer" if args.trace else "end_to_end"]

    if args.seed < 0:
        print("perfbench: --seed must be non-negative (it is the trainer seed)", file=sys.stderr)
        return 2
    # result files of earlier runs are kept; the rest is per run
    for sub in ("units", "runs", "trace"):
        shutil.rmtree(os.path.join(WORK, sub), ignore_errors=True)
    for sub in ("units", "runs", "trace", "results"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)

    report = {
        "machine": machine_info(),
        "inputs": {"workload": args.workload, "config": config, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "blas_threads": BLAS_THREADS,
                   "setup_probes": 0 if args.trace else SETUP_PROBES},
        "run_errors": [],
    }
    if args.trace:
        res = run_unit("selftest", "selftest", ["--out", os.path.join(WORK, "runs", "selftest")],
                       deadline)
        report["run_errors"] += [f"selftest: {e}" for e in res["errors"]]
        shutil.rmtree(os.path.join(WORK, "runs", "selftest"), ignore_errors=True)

    measured = run_workload(config, args, deadline, report)
    expected_src = os.path.realpath(os.path.join(ROOT, "src", "logicrl"))
    if "logicrl_file" in report and \
            os.path.dirname(os.path.realpath(report["logicrl_file"])) != expected_src:
        report["run_errors"].append(f"imported logicrl from {report['logicrl_file']}")

    values = measured.get("_layers", {}) if args.trace else measured
    metrics = {}
    for entry in declared:
        if entry["name"] not in values:
            report["run_errors"].append(f"metric {entry['name']} not measured")
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
    correct = report["failed"] == 0 and not report["run_errors"]
    report.update(correct=correct, metrics=metrics, wall_s=time.monotonic() - started)

    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fp:
        json.dump(report, fp, indent=1)

    mach, inp = report["machine"], report["inputs"]
    print(f"# machine: nproc={mach['nproc']} cpu={mach['cpu_model']!r} python={mach['python']} "
          f"numpy={report.get('numpy')} commit={mach['git_commit']} "
          f"source_sha256={mach['source_sha256'][:16]}")
    print(f"# inputs: {json.dumps(inp, sort_keys=True)}")
    for entry in declared:
        print(f"{entry['name']} = {metrics[entry['name']]['value']!r} {entry['unit']}")
    evals = report.get("ckpt_eval_samples")
    if evals:
        n = len(evals)
        # the highest percentile with ten samples beyond it, once it is above the median
        tail = f", p{100 * (n - 10) / n:.1f} {evals[n - 11]:.4f} s" if n >= 22 else ""
        print(f"# checkpoint evaluations: {n}, p50 {statistics.median(evals):.4f} s{tail}, "
              f"max {evals[-1]:.4f} s")
    if "wall_clock" in report:
        print("# uncorrected wall-clock figures: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in report["wall_clock"].items()))
        probes = [c["probe_p50_s"] for c in report["host_probes"] if c["probe_p50_s"]]
        if probes:
            print(f"# host-speed probe p50 per process: {min(probes):.6f}-{max(probes):.6f} s "
                  f"(reference {report['host_probes'][0]['ref_probe_s']} s)")
        print(f"# training loop CPU time / wall time = {report['loop_cpu_share']:.4f}")
    print(f"# failed_ratio = {report['failed']}/{report['attempted']}"
          f" = {report['failed'] / max(report['attempted'], 1)!r}")
    if "metrics_sha256" in report:
        print(f"# metrics.csv sha256 (trainer seed {args.seed}) = {report['metrics_sha256']}")
    unit_errors = [e for u in report["probes"] + report["units"] for e in u["errors"] +
                   [x for ev in u.get("evals", []) for x in ev["errors"]]]
    for err in report["run_errors"] + unit_errors:
        print(f"# error: {err}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
