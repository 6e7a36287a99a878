"""Learned one-step dynamics: (state, action) -> predicted next state.

A plain MLP regressor trained with mean squared error, so its predictions
converge to the conditional mean of the next-state distribution. States are
normalized by running statistics on the way in and out; actions enter as a
one-hot block appended to the input.
"""
from __future__ import annotations

import numpy as np

from .tensor import (
    MLPConfig,
    ParamSet,
    UpdateRejected,
    mlp_backward,
    mlp_forward,
    mlp_init,
)

STD_FLOOR = 1e-6


class RunningNorm:
    """Per-component running mean/std (Welford), std floored at 1e-6.

    `std` is a read-only array recomputed by `update` and `set_state`, the
    only writers of `count`/`m2`, so a prediction does not recompute it.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self._refresh_std()

    def update(self, states: np.ndarray) -> None:
        batch = np.atleast_2d(np.asarray(states, dtype=np.float64))
        n = len(batch)
        if n == 0:
            return
        b_mean = batch.mean(axis=0)
        b_m2 = ((batch - b_mean) ** 2).sum(axis=0)
        delta = b_mean - self.mean
        total = self.count + n
        self.mean = self.mean + delta * (n / total)
        self.m2 = self.m2 + b_m2 + delta * delta * (self.count * n / total)
        self.count = total
        self._refresh_std()

    def _refresh_std(self) -> None:
        if self.count < 2:
            std = np.ones(self.dim)
        else:
            std = np.maximum(np.sqrt(self.m2 / self.count), STD_FLOOR)
        std.flags.writeable = False
        self.std = std

    def normalize(self, x: np.ndarray, out=None) -> np.ndarray:
        return np.divide(np.subtract(x, self.mean, out=out), self.std, out=out)

    def denormalize(self, z: np.ndarray, out=None) -> np.ndarray:
        return np.add(np.multiply(z, self.std, out=out), self.mean, out=out)

    def get_state(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean.tolist(),
            "m2": self.m2.tolist(),
        }

    def set_state(self, state: dict) -> None:
        """Continue from a `get_state` snapshot. A count that is not an int
        >= 0, or a mean or m2 that is not `dim` finite numbers, or a negative
        m2, raises ValueError and changes nothing."""
        count = state["count"]
        if type(count) is not int or count < 0:
            raise ValueError(f"normalizer count {count!r} is not an integer >= 0")
        mean, m2 = (np.asarray(state[key], dtype=np.float64) for key in ("mean", "m2"))
        for key, a in (("mean", mean), ("m2", m2)):
            if a.shape != (self.dim,) or not np.isfinite(a).all():
                raise ValueError(f"normalizer {key} {state[key]!r} is not {self.dim} finite values")
        if (m2 < 0.0).any():
            raise ValueError(f"normalizer m2 {state['m2']!r} has a negative entry")
        self.count, self.mean, self.m2 = count, mean, m2
        self._refresh_std()


class ForwardModel:
    """MSE-trained deterministic point predictor of the next state."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        hidden: tuple[int, ...] = (64, 64),
        seed: int = 0,
    ):
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.config = MLPConfig((state_dim + n_actions, *hidden, state_dim))
        self.params = mlp_init(self.config, seed, prefix="fwd.")
        self.normalizer = RunningNorm(state_dim)
        self._action_rows = np.eye(n_actions)  # one-hot rows, indexed by action

    # -- inputs ---------------------------------------------------------------

    def _net_input(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """The (n, state_dim + n_actions) net input, built in one buffer:
        the normalized states, then each action's one-hot row."""
        n, d = len(states), self.state_dim
        if states.ndim != 2 or states.shape[1] != d:
            raise ValueError(f"expected states of shape (n, {d}), got {states.shape}")
        if len(actions) != n:
            raise ValueError(f"expected {n} actions, one per state, got {len(actions)}")
        # a negative action reads as a huge unsigned one, so one comparison
        # checks both ends
        if np.count_nonzero(actions.view(np.uint64) >= self.n_actions):
            raise ValueError("action index out of range")
        x = np.empty((n, d + self.n_actions))
        self.normalizer.normalize(states, out=x[:, :d])
        x[:, d:] = self._action_rows[actions]
        return x

    def update_normalizer(self, states: np.ndarray) -> None:
        self.normalizer.update(states)

    # -- prediction -----------------------------------------------------------

    def predict_batch(self, states, actions) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.asarray(actions, dtype=np.int64).ravel()
        if np.count_nonzero(np.isfinite(states)) != states.size:
            raise ValueError("non-finite state components")
        z, _ = mlp_forward(self.params, self.config, self._net_input(states, actions))
        return self.normalizer.denormalize(z, out=z)

    def predict(self, state, action: int) -> np.ndarray:
        return self.predict_batch(np.asarray(state)[None, :], [action])[0]

    # -- training -------------------------------------------------------------

    def loss_and_grads(self, batch) -> tuple[float, ParamSet]:
        """Mean over a (states, actions, next states) batch of squared L2
        error, in normalized state units."""
        s, a, s2 = batch
        states = np.atleast_2d(np.asarray(s, dtype=np.float64))
        actions = np.asarray(a, dtype=np.int64).ravel()
        nexts = np.atleast_2d(np.asarray(s2, dtype=np.float64))
        if len(states) == 0:
            raise ValueError("empty batch")
        x = self._net_input(states, actions)
        if nexts.shape != states.shape:
            raise ValueError(f"expected next states of shape {states.shape}, got {nexts.shape}")
        targets = self.normalizer.normalize(nexts)
        z, cache = mlp_forward(self.params, self.config, x)
        err = z - targets
        loss = float(np.mean(np.sum(err * err, axis=1)))
        if not np.isfinite(loss):
            raise UpdateRejected(f"non-finite dynamics loss {loss}; step aborted")
        grads = mlp_backward(self.params, self.config, cache, 2.0 * err / len(states))
        return loss, grads
