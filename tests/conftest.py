"""Suite-wide set-up: every test runs with numpy's OpenBLAS on one thread, as
the CLI does, so in-process training computes the same bits as `logicrl
train` whatever OPENBLAS_NUM_THREADS or the core count is.

Also the two session-scoped training fixtures, which any module may share:
`grid_runs` trains the grid bridge experiments and `cartpole_runs` the
cart-pole ones, each experiment's seeds in parallel worker processes (which
write the same bytes as a sequential run). They take minutes, so a test that
uses them is marked `slow`.
"""
import os

import pytest

from logicrl import cli
from logicrl.harness import build_run_config, run_train


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    with cli._one_blas_thread():
        yield


SEEDS = "0,1,2"
GRID_STEPS = 200_000
CARTPOLE_STEPS = 300_000
KEEPOUT = "configs/grid_keepout.fl"
TAUTOLOGY = "configs/grid_tautology.fl"
CARTPOLE_FL = "configs/cartpole_theta.fl"


def grid_run_values(out: str, experiment: str, constraint: str) -> dict:
    return {
        "experiment": experiment,
        "env": "gridworld",
        "constraint": constraint,
        "seeds": SEEDS,
        "steps": str(GRID_STEPS),
        "rollout_length": "50",
        "batch_size": "20",
        "gamma": "0.99",
        "gae_lambda": "0.95",
        "lr": "0.001",
        "entropy_coef": "0.01",
        "eval_every": "20000",
        "eval_horizon": "1000",
        "out": out,
    }


def cartpole_run_values(out: str, experiment: str, constraint: str, d: int,
                        use_env_reward: bool) -> dict:
    return {
        "experiment": experiment,
        "env": "cartpole",
        "constraint": constraint,
        "d": str(d),
        "use_env_reward": "true" if use_env_reward else "false",
        "seeds": SEEDS,
        "steps": str(CARTPOLE_STEPS),
        "rollout_length": "20",
        "batch_size": "20",
        "gamma": "0.95",
        "gae_lambda": "0.9",
        "lr": "0.001",
        "entropy_coef": "0.01",
        "value_coef": "0.5",
        "eval_every": "30000",
        "eval_horizon": "1000",
        "out": out,
    }


@pytest.fixture(scope="session")
def grid_runs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("grid_runs"))
    dirs = {}
    for experiment, constraint in (
        ("bridge_sys3", KEEPOUT),
        ("bridge_base", "none"),
        ("bridge_lb0", TAUTOLOGY),
    ):
        config = build_run_config(grid_run_values(out, experiment, constraint))
        dirs[experiment] = run_train(config, parallel=True)
    return out, dirs


@pytest.fixture(scope="session")
def cartpole_runs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cartpole_runs"))
    dirs = {}
    for d in (1, 5):
        for label, constraint, use_env in (
            ("sys3", CARTPOLE_FL, False),
            ("base", "none", True),
        ):
            experiment = f"cp_{label}_d{d}"
            config = build_run_config(
                cartpole_run_values(out, experiment, constraint, d, use_env)
            )
            dirs[experiment] = run_train(config, parallel=True)
    return out, dirs


def checkpoints_of(run_dir: str) -> list[str]:
    root = os.path.join(run_dir, "checkpoints")
    # only complete bundles: a save cut short leaves a `.step_*.partial` dir
    return [os.path.join(root, name) for name in sorted(os.listdir(root))
            if name.startswith("step_")]
