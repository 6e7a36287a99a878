"""Training loop: collect rollouts, predict next states, grant constraint
reward for predicted-safe steps, and take one joint gradient step on the
weighted policy objective plus the weighted dynamics loss.

Evaluation is separate and greedy: it scores the constraint on the *true*
next states (reality, not the model) and never updates parameters. Both walk
the environments with the one stepping loop, `run_steps`.
"""
from __future__ import annotations

import json
import math
import os
import shutil
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import constraints as fl
from .actor_critic import ActorCritic, gae_batch, grid_onehot_features, policy_value_loss
from .dynamics import ForwardModel
from .envs import GridLayout, make_env, restore_rng
from .tensor import Optimizer, load_paramset_file, save_paramset_file

# Bumped whenever the checkpoint bundle's format changes, so a bundle of an
# older format is refused by its state.json before any .params file is read.
VERSION_TAG = "logicrl-0.7.0"

# Each trained parameter set, in checkpoint order: its name (the key of
# Trainer.optimizers and the stem of its .params file), the Trainer attribute
# that owns it, and that owner's parameter attribute.
_PARAM_SETS = (
    ("policy", "agent", "policy_params"),
    ("value", "agent", "value_params"),
    ("forward", "model", "params"),
)


def _count(state: dict, key: str, least: int = 0) -> int:
    """`state[key]`, checked to be an int >= `least`."""
    value = state[key]
    if type(value) is not int or value < least:
        raise ValueError(f"{key} {value!r} is not an integer >= {least}")
    return value


def _finite(value, what: str):
    """`value`, checked to be a finite int or float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not a finite number")
    return value


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
    constraint_reward_weight: float = 1.0
    use_env_reward: bool = True
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    hidden: tuple[int, ...] = (64, 64)

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
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        self.hidden = tuple(int(h) for h in self.hidden)
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must list at least one layer size >= 1, got {self.hidden}")

    @property
    def steps_per_iteration(self) -> int:
        return self.rollout_length * self.batch_size


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


@dataclass
class StepRecord:
    """What `run_steps` saw: (steps, B) arrays of the states acted in,
    actions, env rewards, dones (1.0 where an episode ended), chooser values
    and next states; the returns of the episodes that ended, in order, with
    each one's end label; and each env's state and running return after the
    last step."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray
    next_states: np.ndarray
    completed: list
    end_labels: list
    last_states: np.ndarray
    ep_returns: list


def run_steps(envs, states, ep_returns, steps: int, choose) -> StepRecord:
    """Step the B `envs` `steps` times from their (B, d) `states`, taking
    the actions of `choose(states) -> (actions, values)`, and reset each env
    whose episode ends. `ep_returns` are the env-reward returns of the B
    episodes under way; an episode that goes on past the last step carries
    its return in the record's `ep_returns`."""
    returns = [float(x) for x in ep_returns]
    # per step, the (B, d) states, (B,) actions and values; per env step, the rest
    seen, acted, values, rewards, dones, nexts = [], [], [], [], [], []
    completed, end_labels = [], []
    for _ in range(steps):
        actions, vals = choose(states)
        seen.append(states)
        acted.append(actions)
        values.append(vals)
        following = []  # the state each env goes on from: next or reset
        for i, (env, action) in enumerate(zip(envs, actions.tolist())):
            next_state, reward, done = env.step(action)
            rewards.append(reward)
            dones.append(done)
            nexts.append(next_state)
            returns[i] += reward
            if done:
                completed.append(returns[i])
                end_labels.append(env.end_label(next_state))
                returns[i] = 0.0
                following.append(env.reset())
            else:
                following.append(next_state)
        states = np.array(following)
    shape = (steps, len(envs))
    return StepRecord(
        states=np.concatenate(seen).reshape(*shape, -1),
        actions=np.array(acted, dtype=np.int64),
        rewards=np.array(rewards, dtype=np.float64).reshape(shape),
        dones=np.array(dones, dtype=np.float64).reshape(shape),
        values=np.concatenate(values).reshape(shape),
        next_states=np.array(nexts).reshape(*shape, -1),
        completed=completed,
        end_labels=end_labels,
        last_states=states,
        ep_returns=returns,
    )


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
    The model predicts each step's (state, action) as a one-row batch; the
    formula is scored once over the whole stream (parameters are frozen and each
    row's satisfaction depends on that row alone).
    """
    if eval_steps < 1:
        raise ValueError("eval_steps must be >= 1")
    no_value = np.zeros(1)
    r = run_steps([env], env.reset(seed)[None, :], [0.0], eval_steps,
                  lambda s: (agent.greedy_batch(s), no_value))
    satisfied = disagreements = 0
    if bound is not None:
        true_ok = bound.evaluate_batch(r.next_states[:, 0])
        satisfied = int(true_ok.sum())
        if model is not None:
            predicted = map(model.predict_batch, r.states, r.actions)
            pred_ok = bound.evaluate_batch(np.concatenate(list(predicted)))
            disagreements = int((pred_ok != true_ok).sum())
    return EvalResult(
        mean_return=float(np.mean(r.completed)) if r.completed else r.ep_returns[0],
        satisfaction_rate=satisfied / eval_steps if bound is not None else 1.0,
        violation_count=eval_steps - satisfied if bound is not None else 0,
        steps=eval_steps,
        episodes=len(r.completed),
        episode_returns=r.completed,
        end_counts=dict(Counter(r.end_labels)),
        disagreement_rate=disagreements / eval_steps if model is not None else 0.0,
    )


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

        # the grid policy reads a one-hot cell index, cart-pole's the raw state
        if self.layout is not None:
            feat_dim, featurize = grid_onehot_features(self.layout.width, self.layout.height)
        else:
            feat_dim, featurize = self.schema.size, None
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
        self.optimizers = {name: Optimizer(config.learning_rate) for name, *_ in _PARAM_SETS}
        # each net as seeded (read-only): a checkpoint stores only the
        # elements training moved away from it
        self._untrained = {
            name: getattr(getattr(self, owner), attr) for name, owner, attr in _PARAM_SETS
        }
        self.action_rng = np.random.default_rng(action_seed)

        self.formula = formula
        self.registry = env0.registry()
        self.bound = (
            fl.bind(self.formula, self.registry, self.schema)
            if self.formula is not None
            else None
        )

        self.iteration = 0
        self._ep_returns = np.zeros(config.batch_size)
        self._last_mean_ep_return = 0.0
        self._eval_count = 0

    @property
    def steps(self) -> int:
        """Environment steps trained so far: each iteration steps every env
        rollout_length times."""
        return self.iteration * self.config.steps_per_iteration

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

    def _collect_rollout(self) -> tuple[StepRecord, np.ndarray, dict]:
        """Step every environment rollout_length times, then score the
        constraint on the model's prediction for each (state, action) and on
        the true next state. Returns the step record, the (T, B) rewards the
        policy trains on, and the iteration's constraint rates."""
        cfg = self.config
        r = run_steps(self.envs, np.stack([env.state for env in self.envs]), self._ep_returns,
                      cfg.rollout_length, lambda s: self.agent.act_batch(s, self.action_rng))
        self._ep_returns = np.array(r.ep_returns)
        if self.bound is None:
            pred_ok = true_ok = np.zeros(r.dones.shape, dtype=bool)
        else:
            predicted = map(self.model.predict_batch, r.states, r.actions)
            pred_ok = np.array([self.bound.evaluate_batch(p) for p in predicted])
            true_ok = np.array(list(map(self.bound.evaluate_batch, r.next_states)))
        r_c = np.where(pred_ok, cfg.constraint_reward_weight, 0.0)
        rewards = r.rewards + r_c if cfg.use_env_reward else r_c
        n = pred_ok.size
        rates = {
            "rc_rate": int(pred_ok.sum()) / n,
            "true_satisfaction_rate": int(true_ok.sum()) / n,
            "disagreement_rate": int((pred_ok != true_ok).sum()) / n,
        }
        return r, rewards, rates

    def _train_iteration(self) -> dict:
        cfg = self.config
        r, rewards, rates = self._collect_rollout()
        advantages, returns = gae_batch(rewards, r.values, r.dones, cfg.gamma, cfg.gae_lambda,
                                        self.agent.values_batch(r.last_states))

        flat_states = r.states.reshape(-1, self.schema.size)
        flat_actions = r.actions.reshape(-1)
        loss_pv, pi_grads, vf_grads, stats = policy_value_loss(
            self.agent, flat_states, flat_actions,
            advantages.reshape(-1), returns.reshape(-1),
        )
        self.model.update_normalizer(flat_states)
        loss_f, fwd_grads = self.model.loss_and_grads(
            (flat_states, flat_actions, r.next_states.reshape(flat_states.shape))
        )

        if not (np.isfinite(loss_pv) and np.isfinite(loss_f)):
            raise TrainingDiverged(
                f"non-finite loss at iteration {self.iteration}",
                {"iteration": self.iteration, "loss_pv": loss_pv, "loss_f": loss_f},
            )

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
        if r.completed:
            self._last_mean_ep_return = float(np.mean(r.completed))
        return {
            "iteration": self.iteration,
            "steps": self.steps,
            "mean_env_return": self._last_mean_ep_return,
            "episodes_completed": len(r.completed),
            **rates,
            "forward_loss": loss_f,
            "policy_loss": stats["policy_loss"],
            "value_loss": stats["value_loss"],
            "entropy": stats["entropy"],
            "combined_loss": cfg.lam * loss_pv + cfg.beta * loss_f,
        }

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
        # the touched elements of the parameters and optimizer moments go
        # into the binary .params archives; state.json holds only scalars,
        # text and RNG states, and its config fixes every net's shape
        for name, owner, params_attr in _PARAM_SETS:
            save_paramset_file(
                os.path.join(directory, f"{name}.params"),
                getattr(getattr(self, owner), params_attr),
                self.optimizers[name].get_state(),
                self._untrained[name],
            )
        state = {
            "version": VERSION_TAG,
            "config": asdict(self.config),
            "env_id": self.env_id,
            "seed": self.seed,
            "d": self.d,
            "layout": self.layout.to_text() if self.layout is not None else None,
            "formula": fl.to_text(self.formula) if self.formula is not None else None,
            "iteration": self.iteration,
            "eval_count": self._eval_count,
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
        A bundle that cannot be read or restored raises ValueError. The step
        count and the evaluation seed base are not stored: the first follows
        from the iteration, the second from the seed."""
        try:
            with open(os.path.join(directory, "state.json")) as fp:
                state = json.load(fp)
            return Trainer._restore(directory, state)
        except (OSError, KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            # ValueError covers a malformed state.json and every refusal below;
            # the other kinds mean an entry missing or of the wrong kind, or a
            # JSON integer too large for a float
            detail = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
            raise ValueError(f"unreadable checkpoint at {directory}: {detail}") from exc

    @staticmethod
    def _restore(directory, state: dict) -> "Trainer":
        if state.get("version") != VERSION_TAG:
            raise ValueError(
                f"checkpoint version {state.get('version')!r} does not match {VERSION_TAG!r}"
            )
        config = System3Config(**state["config"])  # __post_init__ makes a JSON hidden list a tuple
        for key in ("ep_returns", "env_snapshots"):
            if len(state[key]) != config.batch_size:
                raise ValueError(f"{len(state[key])} {key} for batch_size {config.batch_size}")
        ep_returns = [_finite(x, "ep_returns entry") for x in state["ep_returns"]]
        last_mean = _finite(state["last_mean_ep_return"], "last_mean_ep_return")
        layout = GridLayout.from_text(state["layout"]) if state["layout"] is not None else None
        formula = fl.parse(state["formula"]) if state["formula"] is not None else None
        trainer = Trainer(
            config, state["env_id"], seed=_count(state, "seed"), layout=layout,
            d=_count(state, "d", least=1), formula=formula,
        )
        for name, owner, params_attr in _PARAM_SETS:
            # the freshly built net gives the entry names and shapes, and the
            # values of the elements training never touched
            learner = getattr(trainer, owner)
            path = os.path.join(directory, f"{name}.params")
            params, opt_state = load_paramset_file(path, getattr(learner, params_attr))
            setattr(learner, params_attr, params)
            trainer.optimizers[name].set_state(opt_state)
        trainer.iteration = _count(state, "iteration")
        trainer._eval_count = _count(state, "eval_count")
        trainer._ep_returns = np.asarray(ep_returns, dtype=np.float64)
        trainer._last_mean_ep_return = last_mean
        trainer.action_rng = restore_rng(state["action_rng"])
        for i, (env, snap) in enumerate(zip(trainer.envs, state["env_snapshots"])):
            try:
                env.set_state(snap)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"env snapshot {i}: {exc}") from exc
        trainer.model.normalizer.set_state(state["normalizer"])
        return trainer
