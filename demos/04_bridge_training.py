"""Safety shaping on the bridge task, end to end.

Two short training runs on the 20x20 bridge grid, identical except for the
constraint: one gets the keep-out formula scored on the learned model's
predictions, one trains on environment reward alone. The shaped agent stays
clear of the band; the value grid shows the depression near unsafe cells.

Artifacts (metrics, curves, value grids) land in runs_demo/.
"""
import os

import numpy as np

from logicrl import bind, evaluate_policy, load_constraint_file, make_env
from logicrl.harness import build_run_config, emit_curves, export_value_grid, run_train
from logicrl.training import Trainer

STEPS = 50_000

common = {
    "env": "gridworld",
    "seeds": "0",
    "steps": str(STEPS),
    "rollout_length": "50",
    "batch_size": "20",
    "eval_every": "10000",
    "eval_horizon": "1000",
    "out": "runs_demo",
}

for experiment, constraint in (("shaped", "configs/grid_keepout.fl"),
                               ("unshaped", "none")):
    config = build_run_config({**common, "experiment": experiment, "constraint": constraint})
    (run_dir,) = run_train(config)
    print(f"{experiment}: artifacts in {run_dir}")

emit_curves(["runs_demo/shaped/seed_0/metrics.csv"], "runs_demo/curves")
print("curves written to runs_demo/curves/")

# Inspect where each agent spends its time at evaluation.
keepout = load_constraint_file("configs/grid_keepout.fl")
for experiment in ("shaped", "unshaped"):
    ckpt_root = f"runs_demo/{experiment}/seed_0/checkpoints"
    final = sorted(n for n in os.listdir(ckpt_root) if n.startswith("step_"))[-1]
    trainer = Trainer.load_checkpoint(os.path.join(ckpt_root, final))
    bound = bind(keepout, trainer.registry, trainer.schema)
    env = make_env("gridworld", 123)
    result = evaluate_policy(trainer.agent, env, bound, 1000, seed=123)
    print(f"{experiment}: satisfaction {result.satisfaction_rate:.3f}, "
          f"violations {result.violation_count}, episode ends {result.end_counts}")
    grid = export_value_grid(os.path.join(ckpt_root, final),
                             f"runs_demo/{experiment}_values.csv",
                             f"runs_demo/{experiment}_values.svg")
    band = grid[8:12].mean()
    rest = np.delete(grid, [9, 10], axis=0).mean()
    print(f"  mean V near the band {band:.2f} vs elsewhere {rest:.2f}")
