"""One benchmark unit, run in a fresh process by `run.py`.

    python3 perfbench/unit.py train    --config C --seed N --out D --result R [--t0 T] [--steps S] [--rescore-until U] [--trace --spans F]
    python3 perfbench/unit.py selftest --out D --result R

`train` is what a `logicrl train` user runs for one seed
(`harness.train_one_seed` on the shipped config; --steps shortens it, for
set-up probes). With --rescore-until it then runs `harness.run_eval` on
every checkpoint the run wrote, in order, as the acceptance suite's
rescoring does, and on around the checkpoints again until that time, and
checks each row against metrics.csv.
`--t0` and `--rescore-until` are CLOCK_MONOTONIC times, which parent and
child share: `--t0` is when the parent started this process, so set-up time
includes interpreter start and imports. Timed units report every interval
twice: in host-speed-corrected seconds (`hostclock.HostClock`, started before
logicrl is imported) and in plain wall time, probes left out (the
"corrected" and "wall" entries of `times` and of each evaluation's `s`).
The result is one JSON file.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402

CLOCK = hostclock.HostClock()
if __name__ == "__main__":
    CLOCK.start()

from logicrl import harness  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

CHECKPOINT_FILES = ("forward.params", "policy.params", "state.json", "value.params")


def sha256_of(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def dir_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def build_config(config_path, seed, out, **overrides):
    """The shipped config with only `seeds`, `out` (and the given overrides,
    such as `steps`) replaced."""
    values = harness.parse_kv_file(config_path)
    values.update(seeds=str(seed), out=out, **{k: str(v) for k, v in overrides.items()})
    return harness.build_run_config(values)


class MarkedTrainer(harness.Trainer):
    """The harness's Trainer, noting when construction returns: the end of
    set-up and the start of the training loop."""

    marks: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        MarkedTrainer.marks.append((time.monotonic(), time.process_time()))


def numpy_info() -> dict:
    """numpy version, its BLAS library and the BLAS thread count in use."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = [f for f in os.listdir(libs) if "openblas" in f] if os.path.isdir(libs) else []
    if names:
        handle = ctypes.CDLL(os.path.join(libs, names[0]))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads = getter()
                break
    return {"version": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


# -- output checks ------------------------------------------------------------


def read_rows(path, header):
    with open(path) as fp:
        lines = fp.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{os.path.basename(path)}: unexpected header")
    return [line.split(",") for line in lines[1:]]


def check_run_dir(run_dir, config) -> list[str]:
    """Structural checks on a finished training run directory."""
    errors = []
    if os.path.exists(os.path.join(run_dir, "diverged.txt")):
        errors.append("run diverged")
    log = read_rows(os.path.join(run_dir, "train_log.csv"), harness.TRAIN_LOG_HEADER)
    metrics = read_rows(os.path.join(run_dir, "metrics.csv"), harness.METRICS_HEADER)
    per_iter = config.sys3.steps_per_iteration
    iterations = math.ceil(config.sys3.total_steps / per_iter)
    steps = [int(r[1]) for r in log]
    if steps != [per_iter * (i + 1) for i in range(iterations)]:
        errors.append(f"train_log.csv: {len(steps)} iterations, expected {iterations}")
    expected_evals, next_at = [], config.eval_every
    for s in steps:
        if s >= next_at:
            expected_evals.append(s)
            next_at = (s // config.eval_every + 1) * config.eval_every
    if [int(r[0]) for r in metrics] != expected_evals:
        errors.append(f"metrics.csv steps {[r[0] for r in metrics]} != {expected_evals}")
    for row in log + metrics:
        if not all(math.isfinite(float(v)) for v in row):
            errors.append("non-finite value in a CSV row")
            break
    ckpt_root = os.path.join(run_dir, "checkpoints")
    for s in expected_evals:
        ckpt = os.path.join(ckpt_root, f"step_{s:09d}")
        if not os.path.isdir(ckpt) or sorted(os.listdir(ckpt)) != list(CHECKPOINT_FILES):
            errors.append(f"checkpoint {os.path.basename(ckpt)} incomplete")
    return errors


def rescore(run_dir, config, until) -> list[dict]:
    """`run_eval` on every checkpoint of the run, in order, as the acceptance
    suite's rescoring does; then on, cycling through the checkpoints in the
    same order, while another evaluation as long as the last one ends by
    `until`. The first five fields of each row (step, iteration, return,
    satisfaction, violations) must equal that step's metrics.csv row."""
    expected = {r[0]: r for r in read_rows(os.path.join(run_dir, "metrics.csv"),
                                           harness.METRICS_HEADER)}
    ckpt_root = os.path.join(run_dir, "checkpoints")
    names = sorted(os.listdir(ckpt_root))
    evals = []
    for k in itertools.count():
        name = names[k % len(names)]
        start = time.monotonic()
        _, row = harness.run_eval(os.path.join(ckpt_root, name), config.eval_horizon,
                                  config.constraint)
        end = time.monotonic()
        fields = row.split(",")
        errors = []
        if expected.get(fields[0], [None])[:5] != fields[:5]:
            errors.append(f"{name}: run_eval row {fields[:5]} != metrics.csv row "
                          f"{expected.get(fields[0])}")
        evals.append({"ckpt": name, "start": start, "end": end, "errors": errors})
        if k + 1 >= len(names) and end + (end - start) > until:
            return evals


# -- modes --------------------------------------------------------------------


def mode_train(args) -> dict:
    """Train one seed through the harness and, with --rescore-until,
    evaluate every checkpoint it wrote; time and check each step."""
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    overrides = {"steps": args.steps} if args.steps else {}
    config = build_config(args.config, args.seed, args.out, **overrides)
    MarkedTrainer.marks.clear()
    run_dir = harness.train_one_seed(config, args.seed)
    end, end_cpu = time.monotonic(), time.process_time()
    setup_done, setup_cpu = MarkedTrainer.marks[0]
    with open(os.path.join(run_dir, "train_log.csv")) as fp:
        train_log_head = fp.read().splitlines()[:2]
    ckpt_root = os.path.join(run_dir, "checkpoints")
    evals = [] if args.rescore_until is None else rescore(run_dir, config, args.rescore_until)
    CLOCK.stop()
    for e in evals:
        e["s"] = {"corrected": CLOCK.corrected(e["start"], e["end"]),
                  "wall": CLOCK.program_s(e["start"], e["end"])}
    spans = {"setup_s": (args.t0, setup_done), "loop_s": (setup_done, end),
             "run_s": (args.t0, end)}
    result = {
        "times": {"corrected": {k: CLOCK.corrected(a, b) for k, (a, b) in spans.items()},
                  "wall": {k: CLOCK.program_s(a, b) for k, (a, b) in spans.items()}},
        "loop_cpu_share": (end_cpu - setup_cpu) / (end - setup_done),
        "clock": CLOCK.summary(),
        "steps": math.ceil(config.sys3.total_steps / config.sys3.steps_per_iteration)
        * config.sys3.steps_per_iteration,
        "checkpoint_bytes": [dir_bytes(os.path.join(ckpt_root, c))
                             for c in sorted(os.listdir(ckpt_root))],
        "metrics_sha256": sha256_of(os.path.join(run_dir, "metrics.csv")),
        "train_log_sha256": sha256_of(os.path.join(run_dir, "train_log.csv")),
        "train_log_head": train_log_head,
        "errors": check_run_dir(run_dir, config),
        "evals": evals,
    }
    if CLOCK.errors:
        result["errors"].append(f"{CLOCK.errors} host-speed probes failed")
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.summary())
        tracer.write(args.spans)
    return result


def mode_selftest(args) -> dict:
    import selftest
    errors = selftest.run_all(args.out)
    return {"errors": errors}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("train", "selftest"))
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--rescore-until", type=float, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    if args.mode != "train" or args.trace:
        # traced and self-test units report plain wall time, unprobed
        CLOCK.stop()
        CLOCK.probes.clear()
    harness.Trainer = MarkedTrainer
    modes = {"train": mode_train, "selftest": mode_selftest}
    result = modes[args.mode](args)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["logicrl_file"] = harness.__file__
    result["numpy"] = numpy_info()
    with open(args.result, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
