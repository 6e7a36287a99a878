import math
import warnings

import numpy as np
import pytest

from logicrl.actor_critic import (
    ActorCritic,
    NonFiniteLogits,
    gae_batch,
    grid_onehot_features,
    policy_value_loss,
    standardize_advantages,
)
from logicrl.envs import CartPole, GridWorld
from logicrl.tensor import log_softmax
from oracles import (
    dense_grid_onehot_features,
    direct_sum_oracle,
    fd_gradient,
    gae_advantages,
    gae_column,
    grads_match,
    paramset_with,
    per_entry_backward,
    reference_mlp_forward,
    reference_softmax,
)


def zero_policy_agent(n_actions=5, feature_dim=3, **kw) -> ActorCritic:
    """Agent whose logits are all zero (uniform policy)."""
    agent = ActorCritic(feature_dim, n_actions, hidden=(8,), seed=0, **kw)
    agent.policy_params = paramset_with(agent.policy_params, fill=0.0)
    return agent


def biased_logits_agent(bias) -> ActorCritic:
    agent = zero_policy_agent(n_actions=len(bias))
    agent.policy_params = paramset_with(agent.policy_params, {"pi.b1": bias})
    return agent


# -- action sampling ---------------------------------------------------------------


def test_act_uniform_frequencies():
    agent = zero_policy_agent()
    rng = np.random.default_rng(0)
    states = np.zeros((100_000, 3))
    actions, _ = agent.act_batch(states, rng)
    freqs = np.bincount(actions, minlength=5) / len(actions)
    assert np.all(np.abs(freqs - 0.2) < 0.01)


def test_act_near_deterministic():
    agent = biased_logits_agent([10.0, -10.0])
    rng = np.random.default_rng(1)
    actions, _ = agent.act_batch(np.zeros((20_000, 3)), rng)
    assert (actions == 0).mean() > 0.999


def test_act_values_are_the_value_heads():
    agent = ActorCritic(3, 4, hidden=(6,), seed=2)
    rng = np.random.default_rng(2)
    states = np.array([[0.3, -0.8, 1.1], [-1.0, 0.2, 0.0]])
    _, act_values = agent.act_batch(states, rng)
    _, values, _, _ = agent.policy_value(states)
    assert np.array_equal(act_values, values)


def test_act_rejects_nonfinite_logits():
    agent = ActorCritic(2, 3, hidden=(4,), seed=0)
    agent.policy_params = paramset_with(agent.policy_params, {"pi.b1": [np.nan, 0.0, 0.0]})
    with pytest.raises(NonFiniteLogits):
        agent.act_batch(np.zeros((1, 2)), np.random.default_rng(0))


def test_greedy_batch_is_argmax():
    agent = biased_logits_agent([0.0, 3.0, -1.0])
    assert np.all(agent.greedy_batch(np.zeros((4, 3))) == 1)


def test_sampling_reproducible_under_seed():
    agent = ActorCritic(3, 4, hidden=(6,), seed=3)
    states = np.random.default_rng(3).normal(size=(50, 3))
    a1, _ = agent.act_batch(states, np.random.default_rng(99))
    a2, _ = agent.act_batch(states, np.random.default_rng(99))
    assert np.array_equal(a1, a2)


# -- featurizers --------------------------------------------------------------------


def test_grid_onehot_features():
    """The grid featurizer gives the (n, 1) int64 column of cell indices
    y * width + x, the position of the 1 in each dense one-hot row."""
    dim, feats = grid_onehot_features(4, 3)
    assert dim == 12
    states = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 2.0]])
    out = feats(states)
    assert out.dtype == np.int64 and out.shape == (3, 1)
    assert out[:, 0].tolist() == [2 * 4 + 1, 0, 11]
    dense = dense_grid_onehot_features(4, 3)[1](states)
    assert out[:, 0].tolist() == np.argmax(dense, axis=1).tolist()
    assert feats(np.array([1.0, 2.0])).tolist() == [[9]]


def test_grid_onehot_features_rejects_off_grid_states():
    """A state off the grid, or not finite, is a ValueError naming it, never
    another cell: (20, 0), (-1, 0) and (0, -1) would read as cells 20, -1
    and -20. A NaN or inf coordinate is rejected before the int cast, with
    no RuntimeWarning."""
    _, feats = grid_onehot_features(20, 20)
    assert feats(np.array([[0.0, 0.0], [19.0, 19.0]]))[:, 0].tolist() == [0, 399]
    states = ([20.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 20.0],
              [np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf])
    for state in states:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"grid state \[{state[0]}, {state[1]}\] lies off"):
                feats(np.array([[3.0, 4.0], state]))
            with pytest.raises(ValueError, match="off the 20x20 grid"):
                feats(np.array(state))


def bridge_states(n: int, seed: int) -> np.ndarray:
    """n states visited by a random walk on the bridge grid."""
    env = GridWorld(seed=seed)
    rng = np.random.default_rng(seed)
    states = [env.reset()]
    while len(states) < n:
        next_state, _, done = env.step(int(rng.integers(5)))
        states.append(env.reset() if done else next_state)
    return np.array(states)


def test_index_and_dense_onehot_give_the_same_loss_bits():
    """policy_value_loss on 1000 bridge states: the index featurizer and the
    dense one-hot featurizer give bitwise-equal losses and gradients."""
    states = bridge_states(1000, seed=4)
    rng = np.random.default_rng(4)
    actions = rng.integers(0, 5, size=1000)
    advantages, returns = rng.normal(size=1000), rng.normal(size=1000)
    results = []
    for features in (grid_onehot_features, dense_grid_onehot_features):
        dim, featurize = features(20, 20)
        agent = ActorCritic(dim, 5, hidden=(64, 64), seed=4, featurize=featurize)
        results.append(policy_value_loss(agent, states, actions, advantages, returns))
    (loss_i, pi_i, vf_i, stats_i), (loss_d, pi_d, vf_d, stats_d) = results
    assert loss_i == loss_d and stats_i == stats_d
    for got, want in ((pi_i, pi_d), (vf_i, vf_d)):
        assert got.layout == want.layout
        assert got.flat().tobytes() == want.flat().tobytes()


# -- GAE -----------------------------------------------------------------------------


def test_gae_single_terminal_step():
    adv, ret = gae_column([2.0], [0.7], [1.0], gamma=0.9, lam=0.95)
    assert np.allclose(adv, [2.0 - 0.7])
    assert np.allclose(ret, [2.0])


def test_gae_lam_zero_is_td_residual():
    rewards = np.array([1.0, 0.5, -0.2])
    values = np.array([0.3, 0.1, 0.4])
    dones = np.zeros(3)
    adv, _ = gae_column(rewards, values, dones, gamma=0.9, lam=0.0, bootstrap_value=0.2)
    next_values = np.array([0.1, 0.4, 0.2])
    deltas = rewards + 0.9 * next_values - values
    assert np.allclose(adv, deltas)


def test_gae_worked_two_step_example():
    # gamma=0.9, lam=0.95, r=(1,1), V=(0.5,0.5), terminal at t=1:
    # delta1 = 0.5, delta0 = 1 + 0.45 - 0.5 = 0.95, A0 = 0.95 + 0.855*0.5
    adv, ret = gae_column([1.0, 1.0], [0.5, 0.5], [0.0, 1.0], gamma=0.9, lam=0.95)
    assert abs(adv[1] - 0.5) < 1e-12
    assert abs(adv[0] - 1.3775) < 1e-12
    assert np.allclose(ret, adv + np.array([0.5, 0.5]))


def test_gae_lam_one_matches_direct_sum():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T = 10
        rewards = rng.normal(size=T)
        values = rng.normal(size=T)
        dones = (rng.random(T) < 0.2).astype(float)
        gamma = float(rng.uniform(0.5, 1.0))
        bootstrap = float(rng.normal())
        adv, _ = gae_column(rewards, values, dones, gamma, 1.0, bootstrap)
        oracle = direct_sum_oracle(rewards, values, dones, gamma, bootstrap)
        assert np.max(np.abs(adv - oracle)) <= 1e-12


def test_gae_monte_carlo_identity_gamma_one():
    # lam=1, gamma=1, no terminals: A_t = sum_{k>=t} r_k + V_T - V_t
    rng = np.random.default_rng(1)
    rewards = rng.normal(size=10)
    values = rng.normal(size=10)
    bootstrap = float(rng.normal())
    adv, _ = gae_column(rewards, values, np.zeros(10), 1.0, 1.0, bootstrap)
    tails = np.cumsum(rewards[::-1])[::-1]
    assert np.allclose(adv, tails + bootstrap - values, atol=1e-12)


def test_gae_batch_matches_per_column():
    rng = np.random.default_rng(2)
    T, B = 12, 5
    rewards = rng.normal(size=(T, B))
    values = rng.normal(size=(T, B))
    dones = (rng.random((T, B)) < 0.15).astype(float)
    bootstrap = rng.normal(size=B)
    adv_b, ret_b = gae_batch(rewards, values, dones, 0.97, 0.9, bootstrap)
    for j in range(B):
        adv, ret = gae_advantages(rewards[:, j], values[:, j], dones[:, j],
                                  0.97, 0.9, bootstrap[j])
        assert np.allclose(adv_b[:, j], adv, atol=1e-14)
        assert np.allclose(ret_b[:, j], ret, atol=1e-14)


def test_gae_input_validation():
    with pytest.raises(ValueError):
        gae_column([], [], [], 0.9, 0.9)
    with pytest.raises(ValueError):
        gae_column([1.0], [1.0, 2.0], [0.0], 0.9, 0.9)


# -- advantage standardization ----------------------------------------------------


def test_standardize_moments_and_guard():
    rng = np.random.default_rng(3)
    a = rng.normal(loc=5.0, scale=3.0, size=1000)
    s = standardize_advantages(a)
    assert abs(s.mean()) < 1e-12 and abs(s.std() - 1.0) < 1e-12
    constant = np.full(10, 2.5)
    assert np.array_equal(standardize_advantages(constant), constant)


def test_standardize_invariant_to_positive_rescaling():
    rng = np.random.default_rng(4)
    a = rng.normal(size=64)
    for c in (0.1, 2.0, 1000.0):
        assert np.allclose(standardize_advantages(c * a), standardize_advantages(a), atol=1e-12)


# -- loss -----------------------------------------------------------------------------


def test_entropy_of_uniform_policy_is_log_n():
    agent = zero_policy_agent(n_actions=5)
    states = np.zeros((4, 3))
    _, _, _, stats = policy_value_loss(agent, states, np.zeros(4, dtype=int),
                                       np.ones(4), np.zeros(4))
    assert abs(stats["entropy"] - math.log(5)) < 1e-12


def test_zero_advantages_zero_policy_term():
    agent = ActorCritic(3, 4, hidden=(6,), seed=5)
    rng = np.random.default_rng(5)
    states = rng.normal(size=(6, 3))
    actions = rng.integers(0, 4, size=6)
    _, _, _, stats = policy_value_loss(agent, states, actions,
                                       np.zeros(6), rng.normal(size=6))
    assert stats["policy_loss"] == 0.0


def test_loss_gradients_match_finite_differences():
    """Both parameter sets of the shared-trunk actor-critic pass the
    finite-difference check on a small frozen buffer."""
    rng = np.random.default_rng(6)
    agent = ActorCritic(3, 4, hidden=(8, 6), seed=6,
                        entropy_coef=0.02, value_coef=0.4)
    states = rng.normal(size=(3, 3))
    actions = rng.integers(0, 4, size=3)
    advantages = rng.normal(size=3)
    returns = rng.normal(size=3)
    _, pi_grads, vf_grads, _ = policy_value_loss(agent, states, actions, advantages, returns)

    def loss_wrt_policy(p):
        saved = agent.policy_params
        agent.policy_params = p
        try:
            return policy_value_loss(agent, states, actions, advantages, returns)[0]
        finally:
            agent.policy_params = saved

    def loss_wrt_value(p):
        saved = agent.value_params
        agent.value_params = p
        try:
            return policy_value_loss(agent, states, actions, advantages, returns)[0]
        finally:
            agent.value_params = saved

    assert grads_match(pi_grads.flat(), fd_gradient(loss_wrt_policy, agent.policy_params))
    assert grads_match(vf_grads.flat(), fd_gradient(loss_wrt_value, agent.value_params))


def reference_loss_grads(agent, x, actions, advantages, returns):
    """policy_value_loss's policy and value gradients from the out-of-place
    references, on the net input `x`: the forward pass and the softmax, the
    loss's gradient w.r.t. the probabilities taken back through the softmax
    Jacobian-transpose product, and per_entry_backward, fed the value
    head's input gradient as the policy's trunk gradient."""
    n = len(actions)
    logits, pcache = reference_mlp_forward(agent.policy_params, agent.policy_config, x)
    values, vcache = reference_mlp_forward(agent.value_params, agent.value_config, pcache.post[-2])
    probs = reference_softmax(logits)
    rows = np.arange(n)
    d_probs = agent.entropy_coef * (log_softmax(logits) + 1.0) / n
    d_probs[rows, actions] += -(standardize_advantages(advantages) / probs[rows, actions]) / n
    d_logits = probs * (d_probs - np.sum(d_probs * probs, axis=1, keepdims=True))
    d_values = ((2.0 * agent.value_coef / n) * (values[:, 0] - returns))[:, None]
    trunk = d_values @ agent.value_params.views[0].T
    return (per_entry_backward(agent.policy_params, agent.policy_config, pcache, d_logits, trunk),
            per_entry_backward(agent.value_params, agent.value_config, vcache, d_values))


@pytest.mark.parametrize("shape", ["cartpole", "grid"])
def test_loss_gradients_equal_the_per_entry_reference_bit_for_bit(shape):
    """At the training batch shapes (400 cart-pole rows; 1000 grid rows,
    whose one-hot index input is checked against its dense rows), both
    gradient vectors of policy_value_loss equal the out-of-place reference
    in every bit."""
    rng = np.random.default_rng(9)
    if shape == "cartpole":
        states = rng.normal(scale=0.5, size=(400, 4))
        agent = ActorCritic(4, CartPole().action_spec.count, seed=9)
        x = states
    else:
        states = bridge_states(1000, seed=9)
        dim, featurize = grid_onehot_features(20, 20)
        agent = ActorCritic(dim, GridWorld().action_spec.count, seed=9, featurize=featurize)
        x = dense_grid_onehot_features(20, 20)[1](states)
    n = len(states)
    actions = rng.integers(0, agent.n_actions, size=n)
    advantages, returns = rng.normal(size=n), rng.normal(size=n)
    _, pi_grads, vf_grads, _ = policy_value_loss(agent, states, actions, advantages, returns)
    want_pi, want_vf = reference_loss_grads(agent, x, actions, advantages, returns)
    for got, want in ((pi_grads, want_pi), (vf_grads, want_vf)):
        assert [a.shape for a in want] == [shape for _, shape in got.layout]
        assert got.flat().tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()


def test_small_step_raises_log_prob_of_positive_advantage_actions():
    rng = np.random.default_rng(7)
    agent = ActorCritic(3, 4, hidden=(8,), seed=7, entropy_coef=0.01, value_coef=0.5)
    states = rng.normal(size=(32, 3))
    actions = rng.integers(0, 4, size=32)
    advantages = rng.normal(size=32)
    returns = rng.normal(size=32)
    standardized = standardize_advantages(advantages)
    positive = standardized > 0

    def mean_logp():
        probs, _, _, _ = agent.policy_value(states)
        return float(np.mean(np.log(probs[np.arange(32), actions])[positive]))

    before = mean_logp()
    _, pi_grads, vf_grads, _ = policy_value_loss(agent, states, actions, advantages, returns)
    # a plain gradient step p - lr * g on each set
    for attr, grads in (("policy_params", pi_grads), ("value_params", vf_grads)):
        params = getattr(agent, attr)
        setattr(agent, attr, params.with_flat(params.flat() - 1e-3 * grads.flat()))
    assert mean_logp() > before
