import numpy as np
import pytest

from logicrl.dynamics import ForwardModel, RunningNorm
from logicrl.envs import GridWorld
from logicrl.tensor import Optimizer, UpdateRejected, mlp_forward
from oracles import fd_gradient, grads_match, paramset_with, transition_mean


def constant_output_model(value: float) -> ForwardModel:
    """1-D model whose net always outputs `value` (zero weights, set bias)."""
    model = ForwardModel(1, 1, hidden=(4,), seed=0)
    model.params = paramset_with(model.params, {"fwd.b1": value}, fill=0.0)
    return model


# -- running normalizer ---------------------------------------------------------


def test_running_norm_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.normal(loc=3.0, scale=2.0, size=(500, 3))
    norm = RunningNorm(3)
    for chunk in np.array_split(data, 7):
        norm.update(chunk)
    assert np.allclose(norm.mean, data.mean(axis=0))
    assert np.allclose(norm.std, data.std(axis=0))


def test_running_norm_floor_and_identity_before_data():
    norm = RunningNorm(2)
    assert np.array_equal(norm.std, np.ones(2))  # no data: identity scaling
    norm.update(np.array([[5.0, 1.0], [5.0, 3.0]]))
    assert norm.std[0] == 1e-6  # constant component floored
    x = np.array([5.0, 2.0])
    assert np.allclose(norm.denormalize(norm.normalize(x)), x)


def test_running_norm_snapshot():
    norm = RunningNorm(2)
    norm.update(np.random.default_rng(1).normal(size=(10, 2)))
    other = RunningNorm(2)
    other.set_state(norm.get_state())
    assert np.array_equal(other.mean, norm.mean)
    assert other.count == norm.count


@pytest.mark.parametrize("changes", [
    {"count": -1}, {"count": 2.5}, {"count": None},
    {"mean": [0.0, 0.0, 0.0]}, {"mean": [float("nan"), 0.0]}, {"mean": None},
    {"m2": [1.0]}, {"m2": [float("inf"), 0.0]}, {"m2": [-1e-9, 0.0]},
])
def test_running_norm_refuses_a_snapshot_it_cannot_have_written(changes):
    """A count that is not an int >= 0, a mean or m2 that is not `dim`
    finite numbers, or a negative m2 raises ValueError and changes nothing."""
    norm = RunningNorm(2)
    norm.update(np.random.default_rng(1).normal(size=(10, 2)))
    before = norm.get_state()
    with pytest.raises(ValueError, match="normalizer"):
        norm.set_state({**before, **changes})
    assert norm.get_state() == before


def _fresh_std(norm: RunningNorm) -> np.ndarray:
    if norm.count < 2:
        return np.ones(norm.dim)
    return np.maximum(np.sqrt(norm.m2 / norm.count), 1e-6)


def test_running_norm_std_follows_every_update_and_restore():
    norm = RunningNorm(3)
    assert norm.std.tobytes() == np.ones(3).tobytes()
    norm.update(np.array([[1.0, 2.0, 0.0]]))  # one sample: still unit scale
    assert norm.std.tobytes() == np.ones(3).tobytes()
    rng = np.random.default_rng(3)
    for n in (1, 5, 40):
        norm.update(rng.normal(size=(n, 3)) * [1.0, 50.0, 0.0])  # last column floored
        assert norm.std.tobytes() == _fresh_std(norm).tobytes()
    assert norm.std[2] == 1e-6
    with pytest.raises(ValueError):
        norm.std[0] = 2.0  # shared by every prediction, so read-only

    restored = RunningNorm(3)
    restored.set_state(norm.get_state())
    assert restored.std.tobytes() == _fresh_std(restored).tobytes() == norm.std.tobytes()
    single = RunningNorm(3)
    single.update(np.array([[4.0, 5.0, 6.0]]))
    restored.set_state(single.get_state())
    assert restored.std.tobytes() == np.ones(3).tobytes()


def test_prediction_tracks_normalizer_update_between_calls():
    model = ForwardModel(2, 3, hidden=(8,), seed=4)
    rng = np.random.default_rng(5)
    states, actions = rng.uniform(0, 10, size=(6, 2)), np.array([0, 1, 2, 0, 1, 2])
    model.update_normalizer(rng.uniform(0, 10, size=(30, 2)))
    first = model.predict_batch(states, actions)
    model.update_normalizer(rng.uniform(0, 40, size=(30, 2)))
    second = model.predict_batch(states, actions)
    norm = model.normalizer
    std = _fresh_std(norm)
    x = np.concatenate([(states - norm.mean) / std, np.eye(3)[actions]], axis=1)
    z, _ = mlp_forward(model.params, model.config, x)
    assert second.tobytes() == (z * std + norm.mean).tobytes()
    assert not np.array_equal(first, second)


# -- prediction -------------------------------------------------------------------


def test_zero_output_layer_predicts_running_mean():
    model = ForwardModel(2, 3, seed=0)
    states = np.random.default_rng(2).uniform(0, 10, size=(40, 2))
    model.update_normalizer(states)
    model.params = paramset_with(model.params, {"fwd.w2": 0.0, "fwd.b2": 0.0})
    pred = model.predict_batch([[7.0, 3.0]], [1])
    assert np.allclose(pred, model.normalizer.mean)


def test_prediction_depends_on_action():
    model = ForwardModel(2, 2, seed=3)
    pred = model.predict_batch([[1.0, 2.0], [1.0, 2.0]], [0, 1])
    assert not np.allclose(pred[0], pred[1])


def test_predict_rejects_bad_inputs():
    model = ForwardModel(2, 2, seed=0)
    with pytest.raises(ValueError):
        model.predict(np.array([np.nan, 1.0]), 0)
    with pytest.raises(ValueError):
        model.predict(np.array([1.0, 1.0]), 5)


@pytest.mark.parametrize("width", [1, 3])
def test_predict_and_loss_reject_states_of_the_wrong_width(width):
    """A one-column batch would be broadcast over both state components,
    and a three-column one fail inside numpy: both name the expected shape."""
    model = ForwardModel(2, 5, seed=0)
    states = np.arange(2.0 * width).reshape(2, width)
    with pytest.raises(ValueError, match=rf"expected states of shape \(n, 2\), got \(2, {width}\)"):
        model.predict_batch(states, [1, 2])
    with pytest.raises(ValueError, match=r"expected states of shape \(n, 2\)"):
        model.loss_and_grads((states, [1, 2], np.zeros((2, 2))))


def test_predict_rejects_an_action_count_other_than_the_row_count():
    """One action must not spread over every row, nor two over one."""
    model = ForwardModel(2, 5, seed=0)
    with pytest.raises(ValueError, match="expected 2 actions, one per state, got 1"):
        model.predict_batch(np.zeros((2, 2)), [3])
    with pytest.raises(ValueError, match="expected 1 actions, one per state, got 2"):
        model.predict_batch(np.zeros((1, 2)), [3, 4])


# -- loss ---------------------------------------------------------------------------


def test_loss_hand_value():
    # net outputs 0.3, target 0.5: squared error 0.04
    model = constant_output_model(0.3)
    loss, _ = model.loss_and_grads((np.array([[0.0]]), np.array([0]), np.array([[0.5]])))
    assert abs(loss - 0.04) < 1e-15


def test_loss_zero_at_perfect_prediction():
    model = constant_output_model(0.7)
    batch = (np.array([[-1.0], [0.0], [2.0]]), np.zeros(3, dtype=int), np.full((3, 1), 0.7))
    loss, grads = model.loss_and_grads(batch)
    assert loss == 0.0
    assert all(np.all(g == 0) for _, g in grads)


def test_loss_rejects_empty_batch():
    model = ForwardModel(2, 2, seed=0)
    with pytest.raises(ValueError):
        model.loss_and_grads((np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((0, 2))))


@pytest.mark.parametrize("width", [1, 3])
def test_loss_rejects_next_states_of_the_wrong_width(width):
    """One next-state column would be broadcast over both components and
    trained on as if it were whole."""
    model = ForwardModel(2, 5)
    message = rf"expected next states of shape \(2, 2\), got \(2, {width}\)"
    with pytest.raises(ValueError, match=message):
        model.loss_and_grads((np.zeros((2, 2)), [0, 1], np.zeros((2, width))))


@pytest.mark.parametrize("action", [-1, 5])
def test_loss_rejects_actions_out_of_range(action):
    """-1 would train on the last one-hot row, and 5 fail inside numpy: both
    raise the message `predict_batch` gives."""
    model = ForwardModel(2, 5)
    with pytest.raises(ValueError, match="action index out of range"):
        model.loss_and_grads((np.zeros((2, 2)), [0, action], np.zeros((2, 2))))


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    model = ForwardModel(3, 2, hidden=(8, 6), seed=4)
    states = rng.normal(size=(5, 3))
    actions = rng.integers(0, 2, size=5)
    nexts = rng.normal(size=(5, 3))
    model.update_normalizer(states)
    _, grads = model.loss_and_grads((states, actions, nexts))

    def loss_fn(p):
        saved = model.params
        model.params = p
        try:
            return model.loss_and_grads((states, actions, nexts))[0]
        finally:
            model.params = saved

    numeric = fd_gradient(loss_fn, model.params)
    assert grads_match(grads.flat(), numeric)


# -- fitting ---------------------------------------------------------------------


def fit_step(model: ForwardModel, optimizer: Optimizer, batch) -> float:
    """One training step on the model parameters, as the Trainer takes it."""
    loss, grads = model.loss_and_grads(batch)
    model.params = optimizer.step(model.params, grads)
    return loss


def test_fit_step_zero_lr_no_change():
    model = ForwardModel(2, 2, seed=5)
    before = model.params
    batch = (np.ones((4, 2)), np.zeros(4, dtype=int), np.ones((4, 2)) * 2)
    fit_step(model, Optimizer(model.params.n_params(), 0.0), batch)
    for name, arr in before:
        assert np.array_equal(arr, model.params[name])


def test_fit_step_descends_on_fixed_batch():
    rng = np.random.default_rng(6)
    model = ForwardModel(2, 2, seed=6)
    batch = (rng.normal(size=(16, 2)), rng.integers(0, 2, 16), rng.normal(size=(16, 2)))
    model.update_normalizer(batch[0])

    def plain_step() -> float:
        """One plain gradient step p - lr * g."""
        loss, grads = model.loss_and_grads(batch)
        model.params = model.params.with_flat(model.params.flat() - 1e-4 * grads.flat())
        return loss

    l1 = plain_step()
    l2 = plain_step()
    l3, _ = model.loss_and_grads(batch)
    assert l2 <= l1
    assert l3 <= l2


def test_fit_step_aborts_on_nan():
    model = ForwardModel(1, 1, seed=0)
    batch = (np.array([[np.nan]]), np.array([0]), np.array([[0.0]]))
    before = model.params
    with pytest.raises(UpdateRejected):
        fit_step(model, Optimizer(model.params.n_params(), 1e-3), batch)
    assert np.array_equal(before.flat(), model.params.flat())


def test_identity_dataset_convergence():
    """Fit s' = s on 100 samples; held-out error under 0.05 per component."""
    rng = np.random.default_rng(42)
    states = rng.uniform(0, 5, size=(100, 2))
    model = ForwardModel(2, 3, seed=1)
    model.update_normalizer(states)
    batch = (states, rng.integers(0, 3, size=100), states)
    optimizer = Optimizer(model.params.n_params(), 1e-3)
    for _ in range(2000):
        fit_step(model, optimizer, batch)
    held = rng.uniform(0, 5, size=(50, 2))
    pred = model.predict_batch(held, rng.integers(0, 3, size=50))
    assert np.abs(pred - held).max() < 0.05


def test_grid_dynamics_convergence_to_conditional_mean():
    """After training on slippery-grid transitions the model lands within a
    cell of the intended next state and tracks the analytic conditional mean
    of the transition distribution (mean per-component error <= 0.15)."""
    env = GridWorld(seed=3)
    rng = np.random.default_rng(3)
    S, A, S2 = [], [], []
    for _ in range(4000):
        a = int(rng.integers(5))
        S.append(env.state)
        A.append(a)
        next_state, _, done = env.step(a)
        S2.append(next_state)
        if done:
            env.reset()
    S, A, S2 = np.array(S), np.array(A), np.array(S2)
    model = ForwardModel(2, 5, seed=2)
    model.update_normalizer(S)
    idx_rng = np.random.default_rng(7)
    optimizer = Optimizer(model.params.n_params(), 1e-3)
    for _ in range(2000):
        idx = idx_rng.integers(0, len(S), size=256)
        fit_step(model, optimizer, (S[idx], A[idx], S2[idx]))

    moves = {0: (-1, 0), 1: (1, 0), 2: (0, 1), 3: (0, -1), 4: (0, 0)}
    rows = [(np.array([x, y], dtype=float), a)
            for x in range(3, 17) for y in range(3, 6) for a in range(5)]
    preds = model.predict_batch(np.array([s for s, _ in rows]), [a for _, a in rows])
    mode_errors, mean_errors = [], []
    for (s, a), pred in zip(rows, preds):
        mode_errors.append(np.linalg.norm(pred - (s + np.array(moves[a]))))
        mean_errors.append(np.abs(pred - transition_mean(env, s, a)).max())
    assert np.mean(mode_errors) < 1.0
    assert np.mean(mean_errors) <= 0.15
