"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them live).

The two training-based fixtures (in conftest.py) are session-scoped and
shared: the grid bridge experiments back criteria 5, 6 and 8; the cart-pole
experiments back criterion 7. Those four tests are marked `slow` (the
fixtures take minutes), so `pytest -m "not slow"` runs everything else.
Baseline runs train without any formula, so their safety is scored afterwards by
re-evaluating every saved checkpoint under the same formula and derived
evaluation seed the training loop used.

Criterion 5 is implemented faithfully and is expected to fail two of its
three legs at this step budget: a uniform random policy reaches the far
target with probability 1.7e-4 per episode on this layout, so no
actor-critic configuration can learn target-reaching here, and the
untrained-looking baseline never behaves unsafely enough to open a 0.15
satisfaction margin. The blocking analysis is in the README; the test
reports every leg's number.
"""
import hashlib
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from logicrl import constraints as fl
from logicrl.actor_critic import ActorCritic, policy_value_loss
from logicrl.dynamics import ForwardModel
from logicrl.envs import GridLayout, GridWorld
from logicrl.harness import build_run_config, read_metrics_csv, run_eval, train_one_seed
from logicrl.tensor import MLPConfig, mlp_backward, mlp_forward, mlp_init, numeric_setting
from oracles import (
    direct_sum_oracle,
    fd_gradient,
    gae_column,
    grads_match,
    oracle_evaluate_batch,
    random_formula,
)
from conftest import CARTPOLE_FL, KEEPOUT, checkpoints_of, grid_run_values


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def rescore_run(run_dir: str, constraint: str, horizon: int = 1000):
    """Re-evaluate every checkpoint of a run under a constraint file; the
    derived per-checkpoint seed reproduces the training loop's own greedy
    trajectories, so this scores exactly what the run did at evaluation."""
    return [run_eval(ckpt, horizon, constraint)[0] for ckpt in checkpoints_of(run_dir)]


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_constraint_oracle_equivalence():
    """1,000 random quantifier-free formulas x 1,000 random 2-D states agree
    100% with the independent truth-table evaluator, in under 10 s."""
    rng = np.random.default_rng(2024)
    states = rng.uniform(-2.0, 12.0, size=(1000, 2))
    registry = fl.ObjectRegistry()
    schema = GridWorld().schema
    start = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        formula = random_formula(rng, max_atoms=6)
        mine = fl.bind(formula, registry, schema).evaluate_batch(states)
        oracle = oracle_evaluate_batch(formula, states)
        disagreements += int(np.sum(mine != oracle))
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 10.0
    report(1, ok, f"{disagreements} disagreements over 1e6 evaluations in {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 10.0


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_2_gradient_suite():
    """Policy, value and dynamics gradients all pass central finite
    differences (relative 1e-4, floor 1e-7) over >= 500 parameter probes."""
    start = time.perf_counter()
    probes = 0
    rng = np.random.default_rng(7)

    agent = ActorCritic(3, 4, hidden=(16, 12), seed=100,
                        entropy_coef=0.02, value_coef=0.4)
    states = rng.normal(size=(5, 3))
    actions = rng.integers(0, 4, size=5)
    advantages = rng.normal(size=5)
    returns = rng.normal(size=5)
    _, pi_grads, vf_grads, _ = policy_value_loss(agent, states, actions, advantages, returns)

    def pi_loss(p):
        saved = agent.policy_params
        agent.policy_params = p
        try:
            return policy_value_loss(agent, states, actions, advantages, returns)[0]
        finally:
            agent.policy_params = saved

    def vf_loss(p):
        saved = agent.value_params
        agent.value_params = p
        try:
            return policy_value_loss(agent, states, actions, advantages, returns)[0]
        finally:
            agent.value_params = saved

    assert grads_match(pi_grads.flat(), fd_gradient(pi_loss, agent.policy_params))
    assert grads_match(vf_grads.flat(), fd_gradient(vf_loss, agent.value_params))
    probes += agent.policy_params.n_params() + agent.value_params.n_params()

    model = ForwardModel(3, 2, hidden=(12, 10), seed=101)
    ms = rng.normal(size=(6, 3))
    ma = rng.integers(0, 2, size=6)
    mn = rng.normal(size=(6, 3))
    model.update_normalizer(ms)
    _, fwd_grads = model.loss_and_grads((ms, ma, mn))

    def fwd_loss(p):
        saved = model.params
        model.params = p
        try:
            return model.loss_and_grads((ms, ma, mn))[0]
        finally:
            model.params = saved

    assert grads_match(fwd_grads.flat(), fd_gradient(fwd_loss, model.params))
    probes += model.params.n_params()

    config = MLPConfig((4, 10, 8, 3))
    params = mlp_init(config, seed=102)
    x = rng.normal(size=(4, 4))
    v = rng.normal(size=3)
    _, cache = mlp_forward(params, config, x)
    grads = mlp_backward(params, config, cache, np.tile(v, (4, 1)))

    def raw_loss(p):
        out, _ = mlp_forward(p, config, x)
        return float(np.sum(out * v))

    assert grads_match(grads.flat(), fd_gradient(raw_loss, params))
    probes += params.n_params()

    elapsed = time.perf_counter() - start
    ok = probes >= 500 and elapsed < 60.0
    report(2, ok, f"{probes} parameter probes, all matched, in {elapsed:.1f}s")
    assert probes >= 500
    assert elapsed < 60.0


# -- criterion 3 ----------------------------------------------------------------


def test_criterion_3_grid_dynamics():
    """Analytic transition distributions sum to exactly 1 for all 400 cells x
    5 actions; 1e5 seeded draws match them within 0.01 per support cell."""
    env = GridWorld(seed=3030)
    for x in range(20):
        for y in range(20):
            for action in range(5):
                pairs = env.transition_distribution(np.array([x, y], float), action)
                assert sum(p for _, p in pairs) == Fraction(1)

    cell, action = (5, 5), 2
    expected = {
        tuple(int(v) for v in c): float(p)
        for c, p in env.transition_distribution(np.array(cell, float), action)
    }
    counts: dict[tuple[int, int], int] = {}
    n = 100_000
    for _ in range(n):
        env._place(cell)
        env._steps = 0
        env._done = False
        next_state, _, _ = env.step(action)
        key = tuple(int(v) for v in next_state)
        counts[key] = counts.get(key, 0) + 1
    worst = 0.0
    for support_cell, probability in expected.items():
        freq = counts.get(support_cell, 0) / n
        worst = max(worst, abs(freq - probability))
    ok = worst < 0.01 and set(counts) <= set(expected)
    report(3, ok, f"2000 exact unit sums; max MC deviation {worst:.4f} over {n} draws")
    assert set(counts) <= set(expected)
    assert worst < 0.01


# -- criterion 4 ----------------------------------------------------------------


def test_criterion_4_gae_oracle():
    """On 100 random 10-step buffers the recursion at lam=1 matches the
    direct-sum Monte-Carlo oracle to 1e-12, and the worked 2-step example
    reproduces the hand-derived numbers."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        rewards = rng.normal(size=10)
        values = rng.normal(size=10)
        dones = (rng.random(10) < 0.25).astype(float)
        gamma = float(rng.uniform(0.5, 1.0))
        bootstrap = float(rng.normal())
        adv, _ = gae_column(rewards, values, dones, gamma, 1.0, bootstrap)
        oracle = direct_sum_oracle(rewards, values, dones, gamma, bootstrap)
        worst = max(worst, float(np.max(np.abs(adv - oracle))))
    adv, _ = gae_column([1.0, 1.0], [0.5, 0.5], [0.0, 1.0], gamma=0.9, lam=0.95)
    example_ok = abs(adv[0] - 1.3775) < 1e-12 and abs(adv[1] - 0.5) < 1e-12
    ok = worst <= 1e-12 and example_ok
    report(4, ok, f"max |recursion - direct sum| = {worst:.2e}; worked example exact")
    assert worst <= 1e-12
    assert example_ok


# -- criterion 5 ----------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_bridge_task_margin(grid_runs):
    """Constraint-shaped agent vs unconstrained baseline on the bridge task:
    satisfaction margin >= 0.15, shaped-agent satisfaction >= 0.90, and
    targets reached in >= 50% of final-evaluation episodes.

    Satisfaction is the mean over the run's periodic evaluations (the paper
    reports training-averaged metrics), 3-seed mean; target-reaching comes
    from a longer final-checkpoint evaluation. The margin and target legs
    are expected to fail at this pinned step budget; see the module
    docstring and the decisions notes for the measured blocking analysis.
    """
    _, dirs = grid_runs
    sys3_sats, base_sats, target_rates = [], [], []
    for run_dir in dirs["bridge_sys3"]:
        rows, _ = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
        sys3_sats.append(np.mean([r[3] for r in rows]))
        final = checkpoints_of(run_dir)[-1]
        target_rates.append(run_eval(final, 4000)[0].target_rate)
    for run_dir in dirs["bridge_base"]:
        evals = rescore_run(run_dir, KEEPOUT)
        base_sats.append(np.mean([e.satisfaction_rate for e in evals]))
    sys3_sat = float(np.mean(sys3_sats))
    base_sat = float(np.mean(base_sats))
    margin = sys3_sat - base_sat
    target_rate = float(np.mean(target_rates))
    legs = (margin >= 0.15, sys3_sat >= 0.90, target_rate >= 0.5)
    report(
        5,
        all(legs),
        f"margin {margin:+.3f} (sys3 {sys3_sat:.3f} vs baseline {base_sat:.3f}, "
        f"need >= +0.15); sys3 satisfaction {sys3_sat:.3f} (need >= 0.90); "
        f"final target rate {target_rate:.2f} (need >= 0.50)",
    )
    assert sys3_sat >= 0.90, f"shaped-agent satisfaction {sys3_sat:.3f} < 0.90"
    assert margin >= 0.15, (
        f"satisfaction margin {margin:+.3f} < 0.15: the baseline never learns to "
        f"approach the band at this budget, so it is incidentally safe"
    )
    assert target_rate >= 0.5, (
        f"target rate {target_rate:.2f} < 0.5: the sparse corner target is never "
        f"discovered within 2e5 steps on this layout (0 hits measured for a "
        f"uniform policy), so target-reaching cannot be learned"
    )


# -- criterion 6 ----------------------------------------------------------------


def adjacency_value_gap(run_dir: str) -> float:
    """Mean value over cells adjacent to unsafe cells minus mean value over
    all safe cells, from the final checkpoint's value grid."""
    from logicrl.harness import export_value_grid

    final = checkpoints_of(run_dir)[-1]
    grid = export_value_grid(final, os.path.join(run_dir, "value_grid.csv"),
                             os.path.join(run_dir, "value_grid.svg"))
    layout = GridLayout.default_bridge()
    adjacent = set()
    for ux, uy in layout.unsafe:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cell = (ux + dx, uy + dy)
                if (cell not in layout.unsafe and 0 <= cell[0] < layout.width
                        and 0 <= cell[1] < layout.height):
                    adjacent.add(cell)
    safe = [(x, y) for x in range(layout.width) for y in range(layout.height)
            if (x, y) not in layout.unsafe]
    v_adjacent = float(np.mean([grid[y, x] for x, y in adjacent]))
    v_safe = float(np.mean([grid[y, x] for x, y in safe]))
    return v_adjacent - v_safe


@pytest.mark.slow
def test_criterion_6_value_grid_contrast(grid_runs):
    """Relative value of band-adjacent cells is strictly lower when training
    with the positive keep-out bound than with the zero bound (3-seed
    averages of the final value grids)."""
    _, dirs = grid_runs
    gap_lb_pos = float(np.mean([adjacency_value_gap(d) for d in dirs["bridge_sys3"]]))
    gap_lb_zero = float(np.mean([adjacency_value_gap(d) for d in dirs["bridge_lb0"]]))
    ok = gap_lb_pos < gap_lb_zero
    report(6, ok, f"adjacent-minus-safe value gap: lb>0 {gap_lb_pos:.3f} "
                  f"vs lb=0 {gap_lb_zero:.3f} (strictly lower required)")
    assert gap_lb_pos < gap_lb_zero


# -- criterion 7 ----------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_cartpole_delayed_rewards(cartpole_runs):
    """Across d in {1, 5} and 3 seeds, constraint-shaped runs accumulate at
    least 30% fewer violations per 1000 evaluation steps than the baselines
    at the same step budget (violations aggregated over all periodic
    evaluations; constrained runs pooled against baselines over both d)."""
    _, dirs = cartpole_runs
    sys3_rates, base_rates = [], []
    for d in (1, 5):
        for run_dir in dirs[f"cp_sys3_d{d}"]:
            rows, _ = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
            sys3_rates.append(np.mean([r[4] for r in rows]))
        for run_dir in dirs[f"cp_base_d{d}"]:
            evals = rescore_run(run_dir, CARTPOLE_FL)
            base_rates.append(np.mean([e.violation_count for e in evals]))
    sys3_mean = float(np.mean(sys3_rates))
    base_mean = float(np.mean(base_rates))
    reduction = 1.0 - sys3_mean / base_mean
    ok = reduction >= 0.30
    report(7, ok, f"violations per 1000 eval steps: constrained {sys3_mean:.1f} vs "
                  f"baseline {base_mean:.1f}; reduction {reduction:.0%} (need >= 30%)")
    assert reduction >= 0.30


# -- criterion 8 ----------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_metrics_determinism(grid_runs, tmp_path):
    """Re-running a training invocation with the same config and seed must
    reproduce metrics.csv byte-for-byte."""
    out, dirs = grid_runs
    original = os.path.join(dirs["bridge_sys3"][0], "metrics.csv")
    config = build_run_config(grid_run_values(str(tmp_path), "bridge_sys3", KEEPOUT))
    rerun_dir = train_one_seed(config, 0)
    with open(original, "rb") as fp:
        first = fp.read()
    with open(os.path.join(rerun_dir, "metrics.csv"), "rb") as fp:
        second = fp.read()
    ok = first == second and len(first) > 0
    report(8, ok, f"metrics.csv identical across reruns ({len(first)} bytes)")
    assert first == second


# -- pinned outputs ---------------------------------------------------------------


# The numeric setting the pinned hashes were written under, and the sha256 of
# the seed-0 metrics.csv and train_log.csv of the two acceptance experiments
# that train with the shipped configs' values (configs/grid_bridge.cfg and
# configs/cartpole_delayed.cfg). A change that keeps every output bit keeps
# all four.
PINNED_SETTING = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0",
                  "blas_threads": 1}
PINNED_SHA256 = {
    ("bridge_sys3", "metrics.csv"):
        "3869f6d34a2aec91129be051b513d8ab4c85debf8bafe06c0b2e4a294cdf2ffa",
    ("bridge_sys3", "train_log.csv"):
        "a8a12e3e455e5b118b1698d4868bf85dde485e55ac9fd51abefb5d73a7737873",
    ("cp_sys3_d5", "metrics.csv"):
        "36b30e65b21b94d10697b6b2a8268df23a18c066b151295630b615286887e10a",
    ("cp_sys3_d5", "train_log.csv"):
        "089576d87a507de1b8395b5ada6f614b996826010d8e6bf51df5c64d26ba638c",
}


@pytest.mark.slow
def test_seed_0_outputs_keep_their_pinned_hashes(grid_runs, cartpole_runs):
    """The seed-0 metrics.csv and train_log.csv of the grid bridge and the
    d = 5 cart-pole experiments hash to their pinned values. The last bits
    depend on numpy and its BLAS, so under another numpy or BLAS the test
    skips and prints both records; the BLAS thread count does not matter."""
    setting = numeric_setting()
    if any(setting[key] != PINNED_SETTING[key] for key in setting if key != "blas_threads"):
        message = f"hashes pinned under {PINNED_SETTING}; this process runs under {setting}"
        print(message)
        pytest.skip(message)
    dirs = {**grid_runs[1], **cartpole_runs[1]}
    got = {}
    for experiment, name in PINNED_SHA256:
        with open(os.path.join(dirs[experiment][0], name), "rb") as fp:
            got[experiment, name] = hashlib.sha256(fp.read()).hexdigest()
    assert got == PINNED_SHA256
