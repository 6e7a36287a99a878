"""Self-test of the tracer on tiny training runs: exact call counts.

    python3 perfbench/selftest.py [--out DIR]

Runs a few-iteration cart-pole (d = 5, so every step passes through the
delayed-reward wrapper) and grid training through `harness.train_one_seed`
with the tracer installed, then checks counts that follow from the config
alone. Exits 1 and lists the mismatches if any count is off.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (config, overrides) of the tiny runs: two iterations and two evaluations each
TINY_RUNS = [
    ("configs/cartpole_delayed.cfg", {"steps": 800, "eval_every": 400, "eval_horizon": 50}),
    ("configs/grid_bridge.cfg", {"steps": 400, "eval_every": 200, "eval_horizon": 50,
                                 "batch_size": 4}),
]


def expected_counts(config, iterations: int, evals: int) -> dict[str, int]:
    T, B = config.sys3.rollout_length, config.sys3.batch_size
    H = config.eval_horizon
    return {
        "envs.step.calls": iterations * T * B + evals * H,
        "envs.construct.calls": B + evals,
        "tensor.mlp_backward.calls": 3 * iterations,
        "tensor.optimizer_step.calls": 3 * iterations,
        "dynamics.predict_batch.calls": iterations * T + evals * H,
        "actor_critic.act_batch.calls": iterations * T,
        # per iteration: act_batch (policy + value net) and predict_batch at
        # each of T steps, the bootstrap values_batch, policy_value_loss and
        # loss_and_grads; per eval step: greedy_batch and predict
        "tensor.mlp_forward.calls": iterations * (3 * T + 5) + evals * H * 3,
        "training.save_checkpoint.calls": evals,
        "tensor.save_paramset_file.calls": 3 * evals,
        "training.evaluate_policy.steps": evals * H,
        "training.train_iteration.calls": iterations,
    }


def check_tiny_run(config_path, overrides, out) -> list[str]:
    from logicrl import dynamics, harness, tensor
    from tracer import Tracer, layer_metrics
    from unit import build_config, sha256_of

    steps = overrides["steps"]
    errors = []
    tag = os.path.basename(config_path)

    def run(traced):
        config = build_config(config_path, 0, os.path.join(out, str(traced)), **overrides)
        tracer = Tracer()
        if traced:
            tracer.install()
            stale = tracer.unpatched_names()
            if stale:
                errors.append(f"{tag}: names left unpatched: {stale}")
        try:
            run_dir = harness.train_one_seed(config, 0)
            if traced:
                last = sorted(os.listdir(os.path.join(run_dir, "checkpoints")))[-1]
                tracer.run_id = 1
                harness.run_eval(os.path.join(run_dir, "checkpoints", last), config.eval_horizon)
        finally:
            tracer.uninstall()
        return config, run_dir, tracer

    config, run_dir, tracer = run(True)
    iterations = steps // config.sys3.steps_per_iteration
    evals = steps // config.eval_every
    got = layer_metrics(tracer.summary(0))
    for metric, want in expected_counts(config, iterations, evals).items():
        if got[metric] != want:
            errors.append(f"{tag}: {metric} = {got[metric]}, expected {want}")
    T = config.sys3.rollout_length
    inner = {
        "dynamics.predict_batch": iterations * T,
        "constraints.evaluate_batch": 2 * iterations * T,
    }
    for name, want in inner.items():
        n = tracer.children_of("training.train_iteration", name)
        if n != want:
            errors.append(f"{tag}: {name} calls inside train_iteration = {n}, expected {want}")
    loaded = layer_metrics(tracer.summary(1))
    load_expect = {
        "training.load_checkpoint.calls": 1,
        "tensor.load_paramset_file.calls": 3,
        "envs.construct.calls": config.sys3.batch_size + 1,
        "training.evaluate_policy.steps": config.eval_horizon,
    }
    for metric, want in load_expect.items():
        if loaded[metric] != want:
            errors.append(f"{tag}: run_eval {metric} = {loaded[metric]}, expected {want}")
    if dynamics.mlp_forward is not tensor.mlp_forward or hasattr(tensor.mlp_forward, "__wrapped__"):
        errors.append(f"{tag}: uninstall left a wrapped mlp_forward behind")

    _, plain_dir, _ = run(False)
    for name in ("metrics.csv", "train_log.csv"):
        if sha256_of(os.path.join(run_dir, name)) != sha256_of(os.path.join(plain_dir, name)):
            errors.append(f"{tag}: traced and untraced {name} differ")
    return errors


def run_all(out) -> list[str]:
    errors = []
    for config_path, overrides in TINY_RUNS:
        errors += check_tiny_run(config_path, overrides, out)
    return errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tracer self-test on tiny runs")
    p.add_argument("--out", default=os.path.join(HERE, "_work", "selftest"))
    args = p.parse_args(argv)
    os.chdir(ROOT)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    shutil.rmtree(args.out, ignore_errors=True)
    errors = run_all(args.out)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
