"""Synchronous advantage actor-critic: categorical policy with a value head
sharing the policy trunk, generalized advantage estimation, and the combined
policy/value/entropy loss with hand-derived gradients.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .tensor import (
    MLPConfig,
    ParamSet,
    log_softmax,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax,
)

ADV_STD_GUARD = 1e-8


class NonFiniteLogits(ValueError):
    """Policy produced NaN/Inf logits; carries the offending state batch."""


def grid_onehot_features(width: int, height: int) -> tuple[int, Callable]:
    """One-hot cell indicator for integer (x, y) grid states, given as an
    (n, 1) int64 column of cell indices y * width + x: mlp_forward reads an
    integer input as the position of each row's one 1. A state off the grid,
    or not finite, raises ValueError rather than alias another cell."""

    limits = np.array([width, height], dtype=np.float64)
    cell_of_xy = np.array([[1], [width]], dtype=np.int64)

    def featurize(states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(states)
        # compared before the int cast, which would warn on NaN or inf:
        # both comparisons are false for NaN
        on = (states >= 0) & (states < limits)
        if np.count_nonzero(on) != on.size:
            bad = states[(~on).any(axis=1).argmax()].tolist()
            raise ValueError(f"grid state {bad} lies off the {width}x{height} grid")
        return states.astype(np.int64) @ cell_of_xy

    return width * height, featurize


class ActorCritic:
    """Categorical policy MLP plus a linear value head on its last hidden
    layer. The policy net outputs logits; the action probabilities are their
    softmax. `featurize` maps raw environment states to network inputs."""

    def __init__(
        self,
        feature_dim: int,
        n_actions: int,
        hidden: tuple[int, ...] = (64, 64),
        seed: int = 0,
        featurize: Optional[Callable] = None,
        entropy_coef: float = 0.01,
        value_coef: float = 0.5,
    ):
        if not hidden:
            raise ValueError("the actor-critic needs at least one hidden layer")
        self.n_actions = n_actions
        self.featurize = featurize if featurize is not None else (lambda s: s)
        self.entropy_coef = entropy_coef
        self.value_coef = value_coef
        self.policy_config = MLPConfig((feature_dim, *hidden, n_actions))
        self.value_config = MLPConfig((hidden[-1], 1))
        self.policy_params = mlp_init(self.policy_config, seed, prefix="pi.")
        self.value_params = mlp_init(self.value_config, seed + 1, prefix="vf.")

    # -- forward ---------------------------------------------------------------

    def policy_value(self, states) -> tuple[np.ndarray, np.ndarray, object, object]:
        """Action probabilities and state values for a batch of raw states."""
        x = np.asarray(states, dtype=np.float64)
        if x.ndim < 2:
            x = x.reshape(1, -1)
        logits, pcache = mlp_forward(self.policy_params, self.policy_config, self.featurize(x))
        if np.count_nonzero(np.isfinite(logits)) != logits.size:
            raise NonFiniteLogits(
                f"non-finite logits for states {np.asarray(states)!r}"
            )
        h_last = pcache.post[-2]
        values, vcache = mlp_forward(self.value_params, self.value_config, h_last)
        return softmax(logits), values[:, 0], pcache, vcache

    def act_batch(self, states, rng: np.random.Generator):
        """Sample one action per state; returns actions and values."""
        probs, values, _, _ = self.policy_value(states)
        cum = np.add.accumulate(probs, axis=1)
        u = rng.random((len(probs), 1))
        actions = np.minimum((cum < u).sum(axis=1), self.n_actions - 1)
        return actions, values

    def greedy_batch(self, states) -> np.ndarray:
        probs, _, _, _ = self.policy_value(states)
        return probs.argmax(axis=1)

    def values_batch(self, states) -> np.ndarray:
        _, values, _, _ = self.policy_value(states)
        return values


# ---------------------------------------------------------------------------
# Generalized advantage estimation


def gae_batch(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    bootstrap_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise GAE over (T, B) arrays of independent rollout streams.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t)
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    returns = A + V

    `bootstrap_values` (B,) stand in for V(s_T) where the last step is not
    terminal; they are ignored (masked by done) otherwise.
    """
    if not rewards.shape == values.shape == dones.shape or len(rewards) == 0:
        raise ValueError("rewards, values and dones must share one (T, B) shape, T >= 1")
    T, _ = rewards.shape
    next_values = np.vstack([values[1:], bootstrap_values[None, :]])
    not_done = 1.0 - dones
    deltas = rewards + gamma * next_values * not_done - values
    advantages = np.zeros_like(rewards)
    acc = np.zeros(rewards.shape[1])
    for t in range(T - 1, -1, -1):
        acc = deltas[t] + gamma * lam * not_done[t] * acc
        advantages[t] = acc
    return advantages, advantages + values


def standardize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Center/scale to mean 0, std 1; left unchanged when the raw std is
    degenerate (< 1e-8), so all-equal advantage batches stay all-equal."""
    std = float(np.std(advantages))
    if std < ADV_STD_GUARD:
        return advantages
    return (advantages - float(np.mean(advantages))) / std


# ---------------------------------------------------------------------------
# Loss


def policy_value_loss(
    model: ActorCritic,
    states: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
) -> tuple[float, ParamSet, ParamSet, dict]:
    """Combined actor-critic loss and its gradients.

    loss = -mean(log pi(a|s) * A_hat)
           + value_coef * mean((V(s) - returns)^2)
           - entropy_coef * mean(entropy(pi(.|s)))

    A_hat is the standardized advantage. Returns (loss, policy gradients,
    value-head gradients, stats). The loss's gradient w.r.t. the
    probabilities is taken back through the softmax to the logits, and the
    value head's input gradient flows into the shared trunk through the
    policy backward pass.
    """
    actions = np.asarray(actions, dtype=np.int64)
    n = len(actions)
    a_hat = standardize_advantages(np.asarray(advantages, dtype=np.float64))
    returns = np.asarray(returns, dtype=np.float64)

    probs, values, pcache, vcache = model.policy_value(states)
    logp_all = log_softmax(pcache.post[-1])
    rows = np.arange(n)
    logp = logp_all[rows, actions]
    entropy = -np.sum(probs * np.where(probs > 0.0, logp_all, 0.0), axis=1)
    v_err = values - returns

    pg_loss = -float(np.mean(logp * a_hat))
    value_loss = float(np.mean(v_err * v_err))
    entropy_mean = float(np.mean(entropy))
    loss = pg_loss + model.value_coef * value_loss - model.entropy_coef * entropy_mean

    # d loss / d probs: policy-gradient term touches only the taken action's
    # probability; the entropy term touches all of them.
    d_probs = model.entropy_coef * (logp_all + 1.0) / n
    d_probs[rows, actions] += -(a_hat / probs[rows, actions]) / n
    # the softmax Jacobian-transpose product, row-wise: d loss / d logits
    d_logits = probs * (d_probs - np.sum(d_probs * probs, axis=1, keepdims=True))
    d_values = (2.0 * model.value_coef / n) * v_err

    value_grads = mlp_backward(model.value_params, model.value_config, vcache, d_values[:, None])
    # the value head is one linear layer on the last hidden layer: its input
    # gradient is the trunk's extra gradient there
    d_trunk = d_values[:, None] @ model.value_params.views[0].T
    policy_grads = mlp_backward(model.policy_params, model.policy_config, pcache, d_logits, d_trunk)
    stats = {
        "loss": loss,
        "policy_loss": pg_loss,
        "value_loss": value_loss,
        "entropy": entropy_mean,
    }
    return loss, policy_grads, value_grads, stats
