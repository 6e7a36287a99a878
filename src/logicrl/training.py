"""Training loop: collect rollouts, predict next states, grant constraint
reward for predicted-safe steps, and take one joint gradient step on the
weighted policy objective plus the weighted dynamics loss.

Evaluation is separate and greedy: it scores the constraint on the *true*
next states (reality, not the model) and never updates parameters.
"""
from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import constraints as fl
from .actor_critic import (
    ActorCritic,
    RolloutBuffer,
    gae_batch,
    grid_onehot_features,
    identity_features,
    policy_value_loss,
    scaled_features,
)
from .dynamics import ForwardModel
from .envs import GridLayout, make_env
from .tensor import OPTIMIZERS, Optimizer, load_paramset_file, save_paramset_file

# Bumped whenever the checkpoint bundle's format changes, so a bundle of an
# older format is refused by its state.json before any .params file is read.
VERSION_TAG = "logicrl-0.3.0"

POLICY_FEATURES = ("auto", "raw", "scaled", "onehot")

# Each trained parameter set, in checkpoint order: its name (the key of
# Trainer.optimizers and the stem of its .params file), the Trainer attribute
# that owns it, and that owner's parameter attribute.
_PARAM_SETS = (
    ("policy", "agent", "policy_params"),
    ("value", "agent", "value_params"),
    ("forward", "model", "params"),
)


class TrainingDiverged(RuntimeError):
    """Raised when a NaN/Inf shows up anywhere in an iteration; carries a
    diagnostic dump so the run artifacts explain themselves."""

    def __init__(self, message: str, dump: Optional[dict] = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class System3Config:
    """Knobs of the combined objective and the rollout scheme.

    `lam` weighs the whole policy-side loss, `beta` the dynamics loss; both
    parameter sets receive one optimizer step per iteration.
    """

    lam: float = 0.15
    beta: float = 0.3
    gamma: float = 0.99
    gae_lambda: float = 0.95
    learning_rate: float = 1e-3
    rollout_length: int = 100
    batch_size: int = 20
    total_steps: int = 1_000_000
    constraint_file: Optional[str] = None
    constraint_reward_weight: float = 1.0
    use_env_reward: bool = True
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    hidden: tuple[int, ...] = (64, 64)
    optimizer: str = "adam"
    policy_features: str = "auto"
    model_warmup_iters: int = 0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        for key in ("lam", "entropy_coef", "value_coef", "constraint_reward_weight"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gamma and gae_lambda must be in [0, 1]")
        if self.rollout_length < 1 or self.batch_size < 1:
            raise ValueError("rollout_length and batch_size must be >= 1")
        self.hidden = tuple(int(h) for h in self.hidden)
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must list at least one layer size >= 1, got {self.hidden}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r} (one of {OPTIMIZERS})")
        if self.policy_features not in POLICY_FEATURES:
            raise ValueError(f"unknown policy_features {self.policy_features!r}")

    @property
    def steps_per_iteration(self) -> int:
        return self.rollout_length * self.batch_size

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "System3Config":
        return System3Config(**d)  # __post_init__ turns a JSON hidden list into a tuple


@dataclass
class EvalResult:
    mean_return: float
    satisfaction_rate: float
    violation_count: int
    steps: int
    episodes: int
    episode_returns: list = field(default_factory=list)
    end_counts: dict = field(default_factory=dict)
    disagreement_rate: float = 0.0

    @property
    def target_rate(self) -> float:
        if self.episodes == 0:
            return 0.0
        return self.end_counts.get("target", 0) / self.episodes


def evaluate_policy(
    agent: ActorCritic,
    env,
    bound: Optional[fl.BoundFormula],
    eval_steps: int,
    seed: Optional[int] = None,
    model: Optional[ForwardModel] = None,
) -> EvalResult:
    """Greedy, update-free evaluation for `eval_steps` environment steps.

    The constraint is checked on the true next state of every step; the mean
    return counts environment reward only. When `model` is given, the
    model-vs-reality constraint disagreement rate is reported as well.
    Actions and model predictions are made step by step; the formula is
    scored once over the whole stream after the loop (parameters are frozen
    and each row's satisfaction depends on that row alone).
    """
    if eval_steps < 1:
        raise ValueError("eval_steps must be >= 1")
    state = env.reset(seed)
    true_next = np.empty((eval_steps, len(state)))
    predicted = np.empty_like(true_next)
    ep_return = 0.0
    episode_returns: list[float] = []
    end_counts: dict[str, int] = {}
    for i in range(eval_steps):
        action = int(agent.greedy_batch(state[None, :])[0])
        t = env.step(action)
        if bound is not None:
            true_next[i] = t.next_state
            if model is not None:
                predicted[i] = model.predict(t.state, action)
        ep_return += t.env_reward
        if t.done:
            episode_returns.append(ep_return)
            label = env.end_label(t.next_state)
            end_counts[label] = end_counts.get(label, 0) + 1
            ep_return = 0.0
            state = env.reset()
        else:
            state = t.next_state
    satisfied = 0
    disagreements = 0
    if bound is not None:
        true_ok = bound.evaluate_batch(true_next)
        satisfied = int(true_ok.sum())
        if model is not None:
            pred_ok = bound.evaluate_batch(predicted)
            disagreements = int((pred_ok != true_ok).sum())
    if episode_returns:
        mean_return = float(np.mean(episode_returns))
    else:
        mean_return = ep_return
    rate = satisfied / eval_steps if bound is not None else 1.0
    return EvalResult(
        mean_return=mean_return,
        satisfaction_rate=rate,
        violation_count=eval_steps - satisfied if bound is not None else 0,
        steps=eval_steps,
        episodes=len(episode_returns),
        episode_returns=episode_returns,
        end_counts=end_counts,
        disagreement_rate=disagreements / eval_steps if model is not None else 0.0,
    )


def _build_featurizer(kind: str, env):
    layout = env.layout
    if kind == "auto":
        kind = "onehot" if layout is not None else "raw"
    if kind == "raw":
        return identity_features(env.schema.size)
    if kind == "scaled":
        return scaled_features(env.feature_scale)
    if kind == "onehot":
        if layout is None:
            raise ValueError("onehot features only apply to the grid world")
        return grid_onehot_features(layout.width, layout.height)


class Trainer:
    """Owns the environments, the two learners and one optimizer per
    parameter set (`optimizers`, keyed policy/value/forward)."""

    def __init__(
        self,
        config: System3Config,
        env_id: str,
        seed: int = 0,
        layout: Optional[GridLayout] = None,
        d: int = 1,
        formula: Optional[fl.Formula] = None,
    ):
        self.config = config
        self.env_id = env_id
        self.seed = seed
        self.d = d

        master = np.random.default_rng(seed)
        env_seeds = [int(s) for s in master.integers(0, 2**62, size=config.batch_size)]
        pi_seed = int(master.integers(0, 2**62))
        fwd_seed = int(master.integers(0, 2**62))
        action_seed = int(master.integers(0, 2**62))
        self._eval_seed_base = int(master.integers(0, 2**62))

        env0 = make_env(env_id, env_seeds[0], layout, d)
        self.layout = env0.layout  # the env's default when `layout` is None
        self.envs = [env0] + [make_env(env_id, s, self.layout, d) for s in env_seeds[1:]]
        self.schema = env0.schema
        self.n_actions = env0.action_spec.count

        feat_dim, featurize = _build_featurizer(config.policy_features, env0)
        self.agent = ActorCritic(
            feat_dim,
            self.n_actions,
            hidden=config.hidden,
            seed=pi_seed,
            featurize=featurize,
            entropy_coef=config.entropy_coef,
            value_coef=config.value_coef,
        )
        self.model = ForwardModel(
            self.schema.size,
            self.n_actions,
            hidden=config.hidden,
            seed=fwd_seed,
        )
        self.optimizers = {
            name: Optimizer(config.optimizer, config.learning_rate) for name, *_ in _PARAM_SETS
        }
        self.action_rng = np.random.default_rng(action_seed)

        self.formula = formula
        if self.formula is None and config.constraint_file:
            self.formula = fl.load_constraint_file(config.constraint_file)
        self.registry = env0.registry()
        self.bound = (
            fl.bind(self.formula, self.registry, self.schema)
            if self.formula is not None
            else None
        )

        self.iteration = 0
        self.steps = 0
        self._ep_returns = np.zeros(config.batch_size)
        self._last_mean_ep_return = 0.0
        self._eval_count = 0

    # -- rollout + update -------------------------------------------------------

    def train_iteration(self) -> dict:
        """One synchronous iteration: collect, score, estimate, step once.

        Any NaN/Inf along the way raises TrainingDiverged with a diagnostic
        dump; the iteration's partial work is discarded.
        """
        try:
            return self._train_iteration()
        except TrainingDiverged:
            raise
        except (ValueError, FloatingPointError) as exc:
            raise TrainingDiverged(
                f"iteration {self.iteration} aborted: {exc}",
                {"iteration": self.iteration, "steps": self.steps, "cause": str(exc)},
            ) from exc

    def _collect_rollout(self) -> tuple[RolloutBuffer, dict]:
        """Step every environment rollout_length times, scoring the constraint
        on the model's prediction for each (state, action) as it happens."""
        cfg = self.config
        T, B = cfg.rollout_length, cfg.batch_size
        d_state = self.schema.size

        states = np.zeros((T, B, d_state))
        actions = np.zeros((T, B), dtype=np.int64)
        rewards = np.zeros((T, B))
        dones = np.zeros((T, B))
        values = np.zeros((T, B))
        next_states = np.zeros((T, B, d_state))
        rc_hits = 0
        true_hits = 0
        disagreements = 0
        completed: list[float] = []

        ep_returns = self._ep_returns.tolist()
        step_states = np.stack([env.state for env in self.envs])
        for t in range(T):
            acts, vals = self.agent.act_batch(step_states, self.action_rng)
            # following: the state each env goes on from (next or reset)
            nexts, following = [], []
            for i, (env, action) in enumerate(zip(self.envs, acts.tolist())):
                tr = env.step(action)
                nexts.append(tr.next_state)
                rewards[t, i] = tr.env_reward  # the constraint reward is added below
                ep_returns[i] += tr.env_reward
                if tr.done:
                    dones[t, i] = 1.0
                    completed.append(ep_returns[i])
                    ep_returns[i] = 0.0
                    following.append(env.reset())
                else:
                    following.append(tr.next_state)
            next_states[t] = nexts
            step_next = next_states[t]
            if self.bound is not None:
                predicted = self.model.predict_batch(step_states, acts)
                pred_ok = self.bound.evaluate_batch(predicted)
                true_ok = self.bound.evaluate_batch(step_next)
                r_c = np.where(pred_ok, cfg.constraint_reward_weight, 0.0)
                rc_hits += int(pred_ok.sum())
                true_hits += int(true_ok.sum())
                disagreements += int((pred_ok != true_ok).sum())
            else:
                r_c = np.zeros(B)
            states[t] = step_states
            actions[t] = acts
            values[t] = vals
            rewards[t] = rewards[t] + r_c if cfg.use_env_reward else r_c
            step_states = np.array(following)

        self._ep_returns = np.array(ep_returns)
        bootstrap = self.agent.values_batch(step_states)
        buffer = RolloutBuffer(states, actions, rewards, dones, values, next_states, bootstrap)
        n = buffer.steps
        side = {
            "completed": completed,
            "rc_rate": rc_hits / n if self.bound is not None else 0.0,
            "true_rate": true_hits / n if self.bound is not None else 0.0,
            "disagreement": disagreements / n if self.bound is not None else 0.0,
        }
        return buffer, side

    def _train_iteration(self) -> dict:
        cfg = self.config
        buffer, side = self._collect_rollout()
        advantages, returns = gae_batch(buffer.rewards, buffer.values, buffer.dones,
                                        cfg.gamma, cfg.gae_lambda, buffer.bootstrap_values)

        flat_states = buffer.flat_states()
        loss_pv, pi_grads, vf_grads, stats = policy_value_loss(
            self.agent, flat_states, buffer.flat_actions(),
            advantages.reshape(-1), returns.reshape(-1),
        )
        self.model.update_normalizer(flat_states)
        loss_f, fwd_grads = self.model.loss_and_grads(
            (flat_states, buffer.flat_actions(), buffer.flat_next_states())
        )

        if not (np.isfinite(loss_pv) and np.isfinite(loss_f)):
            raise TrainingDiverged(
                f"non-finite loss at iteration {self.iteration}",
                {"iteration": self.iteration, "loss_pv": loss_pv, "loss_f": loss_f},
            )

        warmup = self.iteration < cfg.model_warmup_iters
        if not warmup:
            self.agent.policy_params = self.optimizers["policy"].step(
                self.agent.policy_params, pi_grads.scaled(cfg.lam)
            )
            self.agent.value_params = self.optimizers["value"].step(
                self.agent.value_params, vf_grads.scaled(cfg.lam)
            )
        self.model.params = self.optimizers["forward"].step(
            self.model.params, fwd_grads.scaled(cfg.beta)
        )

        self.iteration += 1
        self.steps += buffer.steps
        if side["completed"]:
            self._last_mean_ep_return = float(np.mean(side["completed"]))
        metrics = {
            "iteration": self.iteration,
            "steps": self.steps,
            "mean_env_return": self._last_mean_ep_return,
            "episodes_completed": len(side["completed"]),
            "rc_rate": side["rc_rate"],
            "true_satisfaction_rate": side["true_rate"],
            "disagreement_rate": side["disagreement"],
            "forward_loss": loss_f,
            "policy_loss": stats["policy_loss"],
            "value_loss": stats["value_loss"],
            "entropy": stats["entropy"],
            "combined_loss": cfg.lam * loss_pv + cfg.beta * loss_f,
        }
        return metrics

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, eval_steps: int = 1000, seed: Optional[int] = None) -> EvalResult:
        """Fresh greedy evaluation on a new raw environment instance (no
        delayed-reward wrapper; the wrapper only reshapes training rewards)."""
        if seed is None:
            seed = (self._eval_seed_base + self._eval_count) % 2**62
        self._eval_count += 1
        env = make_env(self.env_id, seed, self.layout, 1)
        return evaluate_policy(self.agent, env, self.bound, eval_steps, seed, self.model)

    # -- checkpointing -------------------------------------------------------------

    def save_checkpoint(self, directory) -> None:
        """Write the checkpoint bundle to `directory`, replacing any bundle
        there. The files go into a sibling staging directory that is renamed
        into place only once complete, so a crash mid-save never leaves a
        partial bundle at `directory`."""
        directory = os.path.normpath(directory)
        staging = os.path.join(
            os.path.dirname(directory), f".{os.path.basename(directory)}.partial"
        )
        shutil.rmtree(staging, ignore_errors=True)  # left by an earlier crash
        os.makedirs(staging)
        try:
            self._write_checkpoint(staging)
            if os.path.isdir(directory):
                shutil.rmtree(directory)
            os.replace(staging, directory)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    def _write_checkpoint(self, directory) -> None:
        # parameters and optimizer moments go into the binary .params
        # archives; state.json holds only scalars, text and RNG states, and
        # its config fixes every net's shape
        for name, owner, params_attr in _PARAM_SETS:
            save_paramset_file(
                os.path.join(directory, f"{name}.params"),
                getattr(getattr(self, owner), params_attr),
                self.optimizers[name].get_state(),
            )
        state = {
            "version": VERSION_TAG,
            "config": self.config.to_dict(),
            "env_id": self.env_id,
            "seed": self.seed,
            "d": self.d,
            "layout": self.layout.to_text() if self.layout is not None else None,
            "formula": fl.to_text(self.formula) if self.formula is not None else None,
            "iteration": self.iteration,
            "steps": self.steps,
            "eval_count": self._eval_count,
            "eval_seed_base": self._eval_seed_base,
            "ep_returns": self._ep_returns.tolist(),
            "last_mean_ep_return": self._last_mean_ep_return,
            "action_rng": self.action_rng.bit_generator.state,
            "env_snapshots": [env.get_state() for env in self.envs],
            "normalizer": self.model.normalizer.get_state(),
        }
        with open(os.path.join(directory, "state.json"), "w") as fp:
            json.dump(state, fp, indent=1, sort_keys=True)

    @staticmethod
    def load_checkpoint(directory) -> "Trainer":
        """Rebuild a trainer that continues bit-identically to the saved one.
        A bundle that cannot be read or restored raises ValueError."""
        path = os.path.join(directory, "state.json")
        try:
            with open(path) as fp:
                state = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable checkpoint at {directory}: {exc}") from exc
        try:
            return Trainer._restore(directory, state)
        except (KeyError, TypeError, AttributeError) as exc:
            # an entry missing from state.json, or of the wrong kind
            raise ValueError(
                f"unreadable checkpoint at {directory}: {type(exc).__name__}: {exc}"
            ) from exc

    @staticmethod
    def _restore(directory, state: dict) -> "Trainer":
        if state.get("version") != VERSION_TAG:
            raise ValueError(
                f"checkpoint version {state.get('version')!r} does not match {VERSION_TAG!r}"
            )
        config = System3Config.from_dict(state["config"])
        layout = GridLayout.from_text(state["layout"]) if state["layout"] else None
        formula = fl.parse(state["formula"]) if state["formula"] else None
        trainer = Trainer(
            config, state["env_id"], seed=state["seed"], layout=layout,
            d=state["d"], formula=formula,
        )
        for name, owner, params_attr in _PARAM_SETS:
            # the freshly built net gives the entry names and shapes
            learner = getattr(trainer, owner)
            path = os.path.join(directory, f"{name}.params")
            try:
                params, opt_state = load_paramset_file(path, getattr(learner, params_attr))
            except (OSError, ValueError) as exc:
                raise ValueError(f"unreadable checkpoint at {directory}: {exc}") from exc
            if opt_state is None:
                raise ValueError(
                    f"unreadable checkpoint at {directory}: no optimizer state in {path}"
                )
            setattr(learner, params_attr, params)
            trainer.optimizers[name].set_state(opt_state)
        trainer.iteration = state["iteration"]
        trainer.steps = state["steps"]
        trainer._eval_count = state["eval_count"]
        trainer._eval_seed_base = state["eval_seed_base"]
        trainer._ep_returns = np.asarray(state["ep_returns"], dtype=np.float64)
        trainer._last_mean_ep_return = state["last_mean_ep_return"]
        trainer.action_rng = np.random.default_rng()
        trainer.action_rng.bit_generator.state = state["action_rng"]
        for env, snap in zip(trainer.envs, state["env_snapshots"]):
            env.set_state(snap)
        trainer.model.normalizer.set_state(state["normalizer"])
        return trainer
