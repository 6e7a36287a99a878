"""The one-row inference path, bit for bit: the in-place forward pass and
the policy and model calls built on it give the same bits as the
out-of-place formulas in oracles.py, and every per-call check still raises
its own error."""
import numpy as np
import pytest

from logicrl import constraints as fl
from logicrl.actor_critic import ActorCritic, NonFiniteLogits, grid_onehot_features
from logicrl.dynamics import ForwardModel
from logicrl.envs import CartPole
from logicrl.tensor import MLPConfig, mlp_forward, mlp_init, softmax
from oracles import (
    paramset_with,
    reference_act_batch,
    reference_greedy_batch,
    reference_mlp_forward,
    reference_predict_batch,
    reference_softmax,
)


def randomized(params, seed: int, scale: float = 0.5):
    """`params` with every entry, biases too, drawn at random."""
    rng = np.random.default_rng(seed)
    return params.with_flat(rng.normal(scale=scale, size=params.n_params()))


def assert_same_forward(params, config, x):
    out, cache = mlp_forward(params, config, x)
    ref_out, ref_cache = reference_mlp_forward(params, config, x)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(cache.inputs, ref_cache.inputs)
    assert cache.inputs.dtype == ref_cache.inputs.dtype
    assert len(cache.post) == len(ref_cache.post) == config.n_layers
    for got, want in zip(cache.post, ref_cache.post):
        assert np.array_equal(got, want)
    return out, ref_out


# Each case id names the hidden activation too: tanh, the only one. The
# head is what reads the linear output: a regressor ("identity") takes it
# as it is, the policy ("softmax") takes its softmax.
@pytest.mark.parametrize("head", ["identity", "softmax"], ids=lambda o: f"{o}-tanh")
@pytest.mark.parametrize("index_input", [False, True])
@pytest.mark.parametrize("n", [1, 20, 1000])
def test_forward_matches_out_of_place_reference(head, index_input, n):
    width = 400 if index_input else 6
    config = MLPConfig((width, 16, 8, 5))
    params = randomized(mlp_init(config, seed=n), seed=n + 1)
    rng = np.random.default_rng(n)
    x = rng.integers(0, width, size=(n, 1)) if index_input else rng.normal(size=(n, width))
    out, ref_out = assert_same_forward(params, config, x)
    if head == "softmax":
        assert np.array_equal(softmax(out), reference_softmax(ref_out))


def test_softmax_matches_reference_and_leaves_its_input():
    rng = np.random.default_rng(4)
    for z in (rng.normal(scale=30, size=(50, 5)), rng.normal(size=7), np.array([[1000.0, 0.0]])):
        before = z.copy()
        assert np.array_equal(softmax(z), reference_softmax(z))
        assert np.array_equal(z, before)


# -- policy and model calls on the shipped shapes ------------------------------------


def grid_learners():
    _, featurize = grid_onehot_features(20, 20)
    agent = ActorCritic(400, 5, hidden=(64, 64), seed=1, featurize=featurize)
    model = ForwardModel(2, 5, hidden=(64, 64), seed=2)
    cells = np.array([[x, y] for y in range(20) for x in range(20)], dtype=np.float64)
    return agent, model, cells


def cartpole_learners():
    agent = ActorCritic(4, 2, hidden=(64, 64), seed=3)
    model = ForwardModel(4, 2, hidden=(64, 64), seed=4)
    states = np.random.default_rng(5).normal(scale=[1.0, 1.5, 0.1, 1.0], size=(1000, 4))
    return agent, model, states


@pytest.mark.parametrize("make, grid_width", [(grid_learners, 20), (cartpole_learners, None)])
def test_policy_and_model_calls_match_the_reference(make, grid_width):
    """On every grid cell x 5 actions, and on 1000 cart-pole states, as one
    batch and one row at a time: the same sampled and greedy actions and
    the same predicted bits."""
    agent, model, states = make()
    agent.policy_params = randomized(agent.policy_params, seed=6)
    agent.value_params = randomized(agent.value_params, seed=7)
    model.params = randomized(model.params, seed=8, scale=0.2)
    model.update_normalizer(states + 0.25)
    A = agent.n_actions

    got = agent.act_batch(states, np.random.default_rng(9))[0]
    assert np.array_equal(got, reference_act_batch(agent, states, np.random.default_rng(9),
                                                   grid_width))
    assert np.array_equal(agent.greedy_batch(states),
                          reference_greedy_batch(agent, states, grid_width))
    rows_s, rows_a = np.repeat(states, A, axis=0), np.tile(np.arange(A), len(states))
    assert np.array_equal(model.predict_batch(rows_s, rows_a),
                          reference_predict_batch(model, rows_s, rows_a))

    rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
    for s in states:
        row = s[None, :]
        assert np.array_equal(agent.act_batch(row, rng)[0],
                              reference_act_batch(agent, row, ref_rng, grid_width))
        assert np.array_equal(agent.greedy_batch(row), reference_greedy_batch(agent, row, grid_width))
        for a in range(A):
            assert np.array_equal(model.predict_batch(row, [a]),
                                  reference_predict_batch(model, row, [a]))


# -- every per-call check keeps its own error -----------------------------------------


def nan_logits_agent():
    agent = ActorCritic(2, 3, hidden=(4,), seed=0)
    agent.policy_params = paramset_with(agent.policy_params, {"pi.b1": [np.nan, 0.0, 0.0]})
    return agent


def cartpole_bound():
    env = CartPole(seed=0)
    return fl.bind(fl.parse("s[0] <= 2.4 and s[0] >= -2.4"), env.registry(), env.schema)


NAN_ROW = [[0.0, 0.0], [np.nan, 1.0]]

CHECKS = [
    ("nan logits", lambda: nan_logits_agent().greedy_batch(np.zeros((1, 2))),
     NonFiniteLogits, "non-finite logits"),
    ("nan model state", lambda: ForwardModel(2, 5).predict_batch(NAN_ROW, [0, 1]),
     ValueError, "non-finite state components"),
    ("action -1", lambda: ForwardModel(2, 5).predict_batch([[0.0, 0.0]], [-1]),
     ValueError, "action index out of range"),
    ("action n_actions", lambda: ForwardModel(2, 5).predict_batch([[0.0, 0.0]], [5]),
     ValueError, "action index out of range"),
    ("nan formula row",
     lambda: cartpole_bound().evaluate_batch([[0.0] * 4, [0.0, np.nan, 0.0, 0.0]]),
     ValueError, "non-finite state components"),
    ("off-grid cell", lambda: grid_onehot_features(20, 20)[1](np.array([[3.0, 20.0]])),
     ValueError, r"grid state \[3.0, 20.0\] lies off the 20x20 grid"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_each_check_raises_its_own_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
