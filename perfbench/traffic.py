"""Where the time of one shipped-length run goes, per tenth of the run.

    python3 perfbench/traffic.py --out perfbench/traffic_evidence.json

For each shipped config, trains one seed for the config's full `steps`
through `harness.train_one_seed`, timing every training iteration (wall and
process CPU) and every in-loop checkpoint save and evaluation, then calls
`harness.run_eval` on each of the run's checkpoints, as the acceptance
suite's rescoring does. The JSON written to --out holds, per config, the
set-up time, the training rate in each tenth of the run, and each
checkpoint's evaluation time. It shows how much the cost of the loop and of
the read side moves over a run, which decides what a benchmark unit must
cover to stand for the whole run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from logicrl import harness  # noqa: E402

CONFIGS = ("configs/grid_bridge.cfg", "configs/cartpole_delayed.cfg")


class TimedTrainer(harness.Trainer):
    """Records (wall, cpu, steps) after every iteration, and the time of
    each in-loop save and evaluation."""

    log: dict = {}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        TimedTrainer.log["init_done"] = time.perf_counter()

    def train_iteration(self):
        w, c = time.perf_counter(), time.process_time()
        out = super().train_iteration()
        TimedTrainer.log["iters"].append(
            (time.perf_counter() - w, time.process_time() - c, self.steps))
        return out

    def save_checkpoint(self, directory):
        w = time.perf_counter()
        super().save_checkpoint(directory)
        TimedTrainer.log["saves"].append(time.perf_counter() - w)

    def evaluate(self, *args, **kwargs):
        w = time.perf_counter()
        out = super().evaluate(*args, **kwargs)
        TimedTrainer.log["evals"].append(time.perf_counter() - w)
        return out


def profile(config_path: str, seed: int, out: str) -> dict:
    values = harness.parse_kv_file(config_path)
    values.update(seeds=str(seed), out=out)
    config = harness.build_run_config(values)
    TimedTrainer.log = {"iters": [], "saves": [], "evals": []}
    start = time.perf_counter()
    run_dir = harness.train_one_seed(config, seed)
    end = time.perf_counter()
    log = TimedTrainer.log
    iters = log["iters"]
    tenth = len(iters) // 10
    tenths = []
    for k in range(10):
        chunk = iters[k * tenth:(k + 1) * tenth]
        steps = chunk[-1][2] - (iters[k * tenth - 1][2] if k else 0)
        tenths.append({"steps_per_s_wall": steps / sum(c[0] for c in chunk),
                       "steps_per_s_cpu": steps / sum(c[1] for c in chunk)})
    ckpt_root = os.path.join(run_dir, "checkpoints")
    rescoring = []
    for name in sorted(os.listdir(ckpt_root)):
        w, c = time.perf_counter(), time.process_time()
        harness.run_eval(os.path.join(ckpt_root, name), config.eval_horizon, config.constraint)
        rescoring.append({"ckpt": name, "wall_s": time.perf_counter() - w,
                          "cpu_s": time.process_time() - c})
    first = tenths[0]["steps_per_s_wall"]
    rest = statistics.median(t["steps_per_s_wall"] for t in tenths[1:])
    evals = [r["wall_s"] for r in rescoring]
    return {
        "config": config_path, "seed": seed, "steps": config.sys3.total_steps,
        "trainer_init_s": log["init_done"] - start,
        "train_one_seed_s": end - start,
        "setup_share": (log["init_done"] - start) / (end - start),
        "in_loop_save_s": log["saves"], "in_loop_evaluate_s": log["evals"],
        "tenths": tenths,
        "first_tenth_over_rest_median": first / rest,
        "rescoring": rescoring,
        "first_ckpt_over_rest_median": evals[0] / statistics.median(evals[1:]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="per-tenth cost of shipped-length runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    harness.Trainer = TimedTrainer
    work = os.path.join(HERE, "_work", "traffic")
    report = {}
    for config_path in CONFIGS:
        shutil.rmtree(work, ignore_errors=True)
        report[os.path.basename(config_path)] = r = profile(config_path, args.seed, work)
        print(f"{config_path}: first tenth / rest = {r['first_tenth_over_rest_median']:.3f}, "
              f"first checkpoint eval / rest = {r['first_ckpt_over_rest_median']:.3f}, "
              f"set-up share {r['setup_share']:.3f}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w") as fp:
        json.dump(report, fp, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
