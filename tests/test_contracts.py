"""Bitwise contracts of the nets' batched forwards and backwards.

They hold for numpy 2.4 with its bundled OpenBLAS 0.3.31, at whatever thread
count the suite runs, but not by construction: a numpy or OpenBLAS upgrade
may break one, and then this module names it instead of a moved hash of a
training run. Each is stated at the shipped shapes, the grid bridge (batch
B = 20, rollout T = 50, 400 cells) and cart-pole (B = 20, T = 20), on freshly
seeded nets and on the last checkpoint of a shipped-shape acceptance run:

- one T*B-row call of `policy_value` (the policy and value nets) and of
  `predict_batch` (the forward model) equals T calls of B rows each;
- on the grid, a 400-row policy table, one row per cell, indexed by cell,
  equals B-row forwards of the same cells. Past layer 0, the 400-row product
  goes to OpenBLAS's blocked kernel and the 20-row one to its small-matrix
  kernel.

The third contract is that the layer-0 weight gradient over the visited
cells, built one block of one-hot columns at a time, equals the dense
one-hot product. `test_tensor.py::test_visited_cell_weight_gradient_bitwise_equals_dense`
states it at the block edges; here it is stated on one grid rollout of
T*B index rows, whose real visited cells fill several blocks.

The fourth is that the bits do not depend on the BLAS thread count: at 1, 2
and 4 OpenBLAS threads, `mlp_backward` of the policy, value and forward nets
returns the same bits, because it runs its weight-gradient products on one
thread whatever the caller's count; and at 1 and 2 threads `mlp_forward`
does too, because no forward product's summation order depends on the
count. A failure names the net and whether its forward or backward moved.

One inequality is stated as a fact too. The evaluation predicts its
H = 1000 steps one row at a time, and numpy sends a one-row product to gemv,
not gemm: those H predictions are not bitwise equal to one H-row
`predict_batch` call, on seeded nets as on trained ones, and they stay
within `ONE_ROW_TOLERANCE`. So batching the evaluation's predictions moves
their last bits.
"""
import numpy as np
import pytest

from conftest import checkpoints_of
from logicrl.tensor import _SMALL_GEMM_MAX_MACS, mlp_backward, mlp_forward
from logicrl.training import System3Config, Trainer
from oracles import blas_threads, dense_onehot, needs_bundled_openblas

# (rollout_length T, batch_size B) of configs/grid_bridge.cfg and
# configs/cartpole_delayed.cfg
SHAPES = {"gridworld": (50, 20), "cartpole": (20, 20)}
# the session fixture and experiment whose seed-0 run gives the trained nets
TRAINED = {"gridworld": ("grid_runs", "bridge_sys3"), "cartpole": ("cartpole_runs", "cp_sys3_d5")}
SOURCES = ["seeded", pytest.param("trained", marks=pytest.mark.slow)]
# the evaluation's horizon, eval_horizon in both shipped configs
H = 1000
# how far one-row predictions may be from the batched ones, relative to the
# batch's largest magnitude (at least 1). At one thread they were up to
# 7.1e-15 apart, on values up to 19.7, on the shipped configs' seed-0 runs.
ONE_ROW_TOLERANCE = 1e-13


def shipped_trainer(request, env: str, source: str) -> Trainer:
    T, B = SHAPES[env]
    if source == "seeded":
        return Trainer(System3Config(rollout_length=T, batch_size=B), env, seed=0)
    fixture, experiment = TRAINED[env]
    _, dirs = request.getfixturevalue(fixture)
    trainer = Trainer.load_checkpoint(checkpoints_of(dirs[experiment][0])[-1])
    assert (trainer.config.rollout_length, trainer.config.batch_size) == (T, B)
    return trainer


def rollout_inputs(trainer: Trainer, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`n` seeded states (grid cells, or normal cart-pole states) and actions."""
    rng = np.random.default_rng(n)
    if trainer.layout is not None:
        xs = rng.integers(0, trainer.layout.width, size=n)
        ys = rng.integers(0, trainer.layout.height, size=n)
        states = np.column_stack([xs, ys]).astype(np.float64)
    else:
        states = rng.normal(size=(n, trainer.schema.size))
    return states, rng.integers(0, trainer.n_actions, size=n)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("env", sorted(SHAPES))
def test_rollout_call_equals_per_step_calls(request, env, source):
    T, B = SHAPES[env]
    trainer = shipped_trainer(request, env, source)
    states, actions = rollout_inputs(trainer, T * B)
    probs, values, _, _ = trainer.agent.policy_value(states)
    predictions = trainer.model.predict_batch(states, actions)
    for t in range(T):
        rows = slice(t * B, (t + 1) * B)
        step_probs, step_values, _, _ = trainer.agent.policy_value(states[rows])
        assert same_bits(step_probs, probs[rows]), f"policy, step {t}"
        assert same_bits(step_values, values[rows]), f"value, step {t}"
        step_predictions = trainer.model.predict_batch(states[rows], actions[rows])
        assert same_bits(step_predictions, predictions[rows]), f"forward model, step {t}"


@pytest.mark.parametrize("source", SOURCES)
def test_grid_policy_table_equals_batch_forwards(request, source):
    T, B = SHAPES["gridworld"]
    trainer = shipped_trainer(request, "gridworld", source)
    width, height = trainer.layout.width, trainer.layout.height
    cells = np.array([[x, y] for y in range(height) for x in range(width)], dtype=np.float64)
    assert len(cells) == 400
    table_probs, table_values, _, _ = trainer.agent.policy_value(cells)
    states, _ = rollout_inputs(trainer, T * B)
    for t in range(T):
        batch = states[t * B : (t + 1) * B]
        index = (batch[:, 1] * width + batch[:, 0]).astype(np.int64)
        probs, values, _, _ = trainer.agent.policy_value(batch)
        assert same_bits(probs, table_probs[index]), f"policy, batch {t}"
        assert same_bits(values, table_values[index]), f"value, batch {t}"


@pytest.mark.parametrize("source", SOURCES)
def test_rollout_policy_backward_over_index_rows_equals_dense_rows(request, source):
    T, B = SHAPES["gridworld"]
    trainer = shipped_trainer(request, "gridworld", source)
    record, _, _ = trainer._collect_rollout()
    index = trainer.agent.featurize(record.states.reshape(T * B, -1))
    params, config = trainer.agent.policy_params, trainer.agent.policy_config
    floor = _SMALL_GEMM_MAX_MACS // (T * B * config.layer_sizes[1]) + 1
    assert len(np.unique(index)) >= 2 * floor  # the one-hot is built in two blocks or more
    rng = np.random.default_rng(T * B)
    g_out = rng.normal(size=(T * B, trainer.n_actions))
    trunk = rng.normal(size=(T * B, config.layer_sizes[-2]))
    grads = [mlp_backward(params, config, mlp_forward(params, config, x)[1], g_out, trunk)
             for x in (index, dense_onehot(index, config.layer_sizes[0]))]
    assert same_bits(grads[0].flat(), grads[1].flat())


@needs_bundled_openblas
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("env", sorted(SHAPES))
def test_nets_compute_the_same_bits_at_any_blas_thread_count(request, env, source):
    T, B = SHAPES[env]
    trainer = shipped_trainer(request, env, source)
    agent, model = trainer.agent, trainer.model
    states, actions = rollout_inputs(trainer, T * B)
    x_policy = agent.featurize(states)
    x_value = mlp_forward(agent.policy_params, agent.policy_config, x_policy)[1].post[-2]
    nets = {"policy": (agent.policy_params, agent.policy_config, x_policy),
            "value": (agent.value_params, agent.value_config, x_value),
            "forward model": (model.params, model.config, model._net_input(states, actions))}
    rng = np.random.default_rng(T * B)
    for name, (params, config, x) in nets.items():
        g_out = rng.normal(size=(T * B, config.layer_sizes[-1]))
        trunk = rng.normal(size=(T * B, config.layer_sizes[-2])) if name == "policy" else None
        caches, grads = {}, {}
        for count in (1, 2):
            with blas_threads(count):
                caches[count] = mlp_forward(params, config, x)[1]
        for a, b in zip(caches[1].post, caches[2].post):
            assert same_bits(a, b), f"{name} forward"
        for count in (1, 2, 4):
            with blas_threads(count):
                grads[count] = mlp_backward(params, config, caches[1], g_out, trunk).flat()
        assert same_bits(grads[1], grads[2]), f"{name} backward, 2 threads"
        assert same_bits(grads[1], grads[4]), f"{name} backward, 4 threads"


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("env", sorted(SHAPES))
def test_one_row_predictions_differ_from_one_batch_in_the_last_bits(request, env, source):
    trainer = shipped_trainer(request, env, source)
    states, actions = rollout_inputs(trainer, H)
    batched = trainer.model.predict_batch(states, actions)
    # as evaluate_policy calls it: one (1, d) row per step
    one_row = np.concatenate([trainer.model.predict_batch(states[i : i + 1], actions[i : i + 1])
                              for i in range(H)])
    assert not same_bits(one_row, batched)
    scale = max(1.0, float(np.abs(batched).max()))
    assert np.abs(one_row - batched).max() <= ONE_ROW_TOLERANCE * scale
