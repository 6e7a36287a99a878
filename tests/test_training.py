import os

import numpy as np
import pytest

from logicrl import constraints as fl
from logicrl.envs import GridWorld, make_env
from logicrl.training import (
    EvalResult,
    System3Config,
    Trainer,
    TrainingDiverged,
    compose_reward,
    constraint_reward,
    evaluate_policy,
)

TAUTOLOGY = "forall u in unsafe: 0 <= norm2(s - u)"
KEEPOUT = "forall u in unsafe: 1.5 <= norm2(s - u)"
UNSAT = "norm2(s - [5,5]) <= -1"


def tiny_config(**overrides) -> System3Config:
    base = dict(rollout_length=8, batch_size=4, total_steps=64,
                learning_rate=1e-3, entropy_coef=0.01)
    base.update(overrides)
    return System3Config(**base)


def grid_trainer(formula_text=TAUTOLOGY, seed=0, **overrides) -> Trainer:
    formula = fl.parse(formula_text) if formula_text else None
    return Trainer(tiny_config(**overrides), "gridworld", seed=seed, formula=formula)


# -- config -------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = System3Config()
    assert cfg.lam == 0.15 and cfg.beta == 0.3 and cfg.learning_rate == 1e-3
    assert cfg.rollout_length == 100 and cfg.batch_size == 20
    assert cfg.total_steps == 1_000_000 and cfg.constraint_reward_weight == 1.0
    with pytest.raises(ValueError):
        System3Config(beta=1.5)
    with pytest.raises(ValueError):
        System3Config(lam=-0.1)
    with pytest.raises(ValueError):
        System3Config(learning_rate=0.0)
    with pytest.raises(ValueError):
        System3Config(gamma=1.2)
    roundtrip = System3Config.from_dict(cfg.to_dict())
    assert roundtrip == cfg


# -- reward composition ----------------------------------------------------------


def test_compose_reward_cases():
    assert compose_reward(1.0, 1.0, True) == 2.0
    assert compose_reward(1.0, 0.5, False) == 0.5
    assert compose_reward(0.0, 0.0, True) == 0.0


def test_constraint_reward_tautology_and_unsat():
    tr = grid_trainer()
    taut = fl.bind(fl.parse(TAUTOLOGY), tr.registry, tr.schema)
    unsat = fl.bind(fl.parse(UNSAT), tr.registry, tr.schema)
    for action in range(5):
        s = np.array([4.0, 4.0])
        assert constraint_reward(taut, tr.model, s, action, weight=0.7) == 0.7
        assert constraint_reward(unsat, tr.model, s, action) == 0.0


class _ExactMeanModel:
    """Stand-in forward model that predicts the analytic conditional mean."""

    def __init__(self, env):
        self.env = env

    def predict(self, state, action):
        return self.env.transition_mean(state, action)


def test_constraint_reward_near_band_with_perfect_model():
    """From a cell just below the unsafe band, stepping toward it lands the
    mean prediction inside the keep-out radius; stepping away stays outside.
    Distances were worked out by hand from the transition distribution."""
    env = GridWorld()
    tr = grid_trainer(KEEPOUT)
    bound = fl.bind(fl.parse(KEEPOUT), tr.registry, tr.schema)
    model = _ExactMeanModel(env)
    s = np.array([5.0, 8.0])
    assert constraint_reward(bound, model, s, 2) == 0.0   # up, toward the band
    assert constraint_reward(bound, model, s, 3) == 1.0   # down, away from it


# -- iteration mechanics -----------------------------------------------------------


def test_lambda_zero_freezes_policy_but_not_model():
    tr = grid_trainer(lam=0.0)
    pi_before = tr.agent.policy_params.flat()
    vf_before = tr.agent.value_params.flat()
    fwd_before = tr.model.params.flat()
    tr.train_iteration()
    assert np.array_equal(tr.agent.policy_params.flat(), pi_before)
    assert np.array_equal(tr.agent.value_params.flat(), vf_before)
    assert not np.array_equal(tr.model.params.flat(), fwd_before)


def test_beta_zero_freezes_model():
    tr = grid_trainer(beta=0.0)
    fwd_before = tr.model.params.flat()
    pi_before = tr.agent.policy_params.flat()
    tr.train_iteration()
    assert np.array_equal(tr.model.params.flat(), fwd_before)
    assert not np.array_equal(tr.agent.policy_params.flat(), pi_before)


def test_objective_decomposition_scaling():
    """Doubling lam exactly doubles the policy-side SGD update and leaves the
    model update unchanged; doubling beta does the reverse (checked on one
    identically-seeded iteration, so both trainers see the same batch)."""
    def updates(lam, beta):
        tr = grid_trainer(lam=lam, beta=beta, optimizer="sgd", seed=7)
        pi0 = tr.agent.policy_params.flat()
        vf0 = tr.agent.value_params.flat()
        fwd0 = tr.model.params.flat()
        tr.train_iteration()
        return (tr.agent.policy_params.flat() - pi0,
                tr.agent.value_params.flat() - vf0,
                tr.model.params.flat() - fwd0)

    d_pi_1, d_vf_1, d_fwd_1 = updates(0.15, 0.3)
    d_pi_2, d_vf_2, d_fwd_2 = updates(0.30, 0.3)
    assert np.allclose(d_pi_2, 2.0 * d_pi_1, rtol=1e-10, atol=1e-14)
    assert np.allclose(d_vf_2, 2.0 * d_vf_1, rtol=1e-10, atol=1e-14)
    assert np.allclose(d_fwd_2, d_fwd_1, rtol=0, atol=0)

    d_pi_3, d_vf_3, d_fwd_3 = updates(0.15, 0.6)
    assert np.allclose(d_fwd_3, 2.0 * d_fwd_1, rtol=1e-10, atol=1e-14)
    assert np.allclose(d_pi_3, d_pi_1, rtol=0, atol=0)
    assert np.allclose(d_vf_3, d_vf_1, rtol=0, atol=0)


def test_constant_reward_triggers_zero_std_guard():
    """Tautology constraint, env reward off, converged value head (V = 100
    with gamma 0.99): every TD residual is exactly zero, the zero-std guard
    skips standardization, and the only surviving policy gradient is the
    entropy term. Rollouts are short enough that no episode can terminate."""
    def make(entropy_coef):
        tr = grid_trainer(TAUTOLOGY, use_env_reward=False, gamma=0.99,
                          rollout_length=6, optimizer="sgd",
                          entropy_coef=entropy_coef, seed=3)
        head = tr.agent.value_params
        head.entries["vf.w0"] = np.zeros_like(head["vf.w0"])
        head.entries["vf.b0"] = np.array([100.0])
        return tr

    frozen = make(0.0)
    pi_before = frozen.agent.policy_params.flat()
    vf_before = frozen.agent.value_params.flat()
    metrics = frozen.train_iteration()
    assert metrics["rc_rate"] == 1.0
    assert metrics["policy_loss"] == 0.0
    assert np.array_equal(frozen.agent.policy_params.flat(), pi_before)
    assert np.array_equal(frozen.agent.value_params.flat(), vf_before)

    entropic = make(0.01)
    pi_before = entropic.agent.policy_params.flat()
    entropic.train_iteration()
    assert not np.array_equal(entropic.agent.policy_params.flat(), pi_before)
    assert np.array_equal(entropic.agent.value_params.flat(), vf_before)


def test_training_metrics_keys_and_rates():
    tr = grid_trainer(TAUTOLOGY)
    m = tr.train_iteration()
    for key in ("iteration", "steps", "mean_env_return", "rc_rate",
                "true_satisfaction_rate", "disagreement_rate", "forward_loss",
                "policy_loss", "value_loss", "entropy", "combined_loss"):
        assert key in m
    assert m["rc_rate"] == 1.0 and m["true_satisfaction_rate"] == 1.0
    assert m["iteration"] == 1 and m["steps"] == 32


def test_nan_parameters_abort_with_dump():
    tr = grid_trainer()
    tr.agent.policy_params.entries["pi.b1"] = np.full(5, np.nan)
    with pytest.raises(TrainingDiverged) as exc:
        tr.train_iteration()
    assert "iteration" in exc.value.dump


# -- determinism and resume ---------------------------------------------------------


def test_metric_stream_determinism():
    a = grid_trainer(KEEPOUT, seed=11)
    b = grid_trainer(KEEPOUT, seed=11)
    for _ in range(3):
        assert a.train_iteration() == b.train_iteration()


def test_checkpoint_resume_bit_identical(tmp_path):
    straight = grid_trainer(KEEPOUT, seed=21)
    for _ in range(2):
        straight.train_iteration()
    resumed_src = grid_trainer(KEEPOUT, seed=21)
    for _ in range(2):
        resumed_src.train_iteration()
    resumed_src.save_checkpoint(tmp_path / "ckpt")
    resumed = Trainer.load_checkpoint(tmp_path / "ckpt")
    for _ in range(2):
        m_straight = straight.train_iteration()
        m_resumed = resumed.train_iteration()
        assert m_straight == m_resumed
    assert np.array_equal(straight.agent.policy_params.flat(),
                          resumed.agent.policy_params.flat())
    assert np.array_equal(straight.model.params.flat(), resumed.model.params.flat())


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    import logicrl.training as training

    trainer = grid_trainer(KEEPOUT, seed=3)
    trainer.train_iteration()
    ckpt = tmp_path / "checkpoints" / "step_000000032"
    trainer.save_checkpoint(ckpt)
    (ckpt / "stray.txt").write_text("not part of the bundle")
    trainer.save_checkpoint(ckpt)  # overwriting a bundle replaces it whole
    assert os.listdir(tmp_path / "checkpoints") == ["step_000000032"]
    assert sorted(os.listdir(ckpt)) == [
        "forward.params", "policy.params", "state.json", "value.params"]

    calls = {"n": 0}
    save = training.save_paramset_file

    def failing_save(*args):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("synthetic disk failure")
        return save(*args)

    monkeypatch.setattr(training, "save_paramset_file", failing_save)
    with pytest.raises(OSError):
        trainer.save_checkpoint(tmp_path / "fresh" / "step_000000064")
    assert os.listdir(tmp_path / "fresh") == []


def test_load_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "state.json").write_text("{not json")
    with pytest.raises(ValueError, match="unreadable"):
        Trainer.load_checkpoint(bad)
    (bad / "state.json").write_text('{"version": "other"}')
    with pytest.raises(ValueError, match="version"):
        Trainer.load_checkpoint(bad)


# -- evaluation -----------------------------------------------------------------------


def test_evaluate_policy_tautology_and_unsat():
    tr = grid_trainer(TAUTOLOGY)
    taut = tr.bound
    env = make_env("gridworld", 5)
    result = evaluate_policy(tr.agent, env, taut, 200, seed=5)
    assert result.satisfaction_rate == 1.0 and result.violation_count == 0
    unsat = fl.bind(fl.parse(UNSAT), tr.registry, tr.schema)
    result = evaluate_policy(tr.agent, make_env("gridworld", 5), unsat, 200, seed=5)
    assert result.satisfaction_rate == 0.0 and result.violation_count == 200


def test_evaluate_policy_random_uniform_regression_value():
    """Pinned by a pre-build Monte-Carlo run: a uniform-random policy on the
    default layout satisfies the lb=1.5 keep-out formula on 97.242% of 1e5
    steps (env seed 0, action rng seed 0). The oracle measured distances
    directly; here the same trajectory is scored through the bound formula."""
    env = GridWorld(seed=0)
    tr = grid_trainer(KEEPOUT)
    bound = fl.bind(fl.parse(KEEPOUT), tr.registry, tr.schema)
    rng = np.random.default_rng(0)
    satisfied = 0
    for _ in range(100_000):
        t = env.step(int(rng.integers(5)))
        satisfied += bound.evaluate(t.next_state)
        if t.done:
            env.reset()
    assert satisfied / 100_000 == 0.97242


def test_evaluate_satisfaction_ignores_model_quality():
    """Evaluation scores the true next states, so scrambling the forward
    model must not change the satisfaction rate (only the disagreement
    diagnostic may move)."""
    a = grid_trainer(KEEPOUT, seed=31)
    b = grid_trainer(KEEPOUT, seed=31)
    rng = np.random.default_rng(0)
    b.model.params = b.model.params.with_flat(rng.normal(size=b.model.params.n_params()))
    ra = a.evaluate(300)
    rb = b.evaluate(300)
    assert ra.satisfaction_rate == rb.satisfaction_rate
    assert ra.violation_count == rb.violation_count
    assert ra.mean_return == rb.mean_return


def test_evaluate_counts_episodes_and_outcomes():
    tr = grid_trainer(KEEPOUT, seed=1)
    result = tr.evaluate(800)
    assert result.steps == 800
    assert result.episodes == len(result.episode_returns)
    assert sum(result.end_counts.values()) == result.episodes
    assert 0.0 <= result.satisfaction_rate <= 1.0
    assert isinstance(result, EvalResult)


def test_evaluate_rejects_zero_horizon():
    tr = grid_trainer()
    with pytest.raises(ValueError):
        evaluate_policy(tr.agent, make_env("gridworld", 0), tr.bound, 0)


def test_evaluate_mean_return_counts_env_reward_only():
    """With the tautology constraint every step earns constraint reward, but
    eval returns stay in the env-reward range (grid episodes pay -1/0/+1)."""
    tr = grid_trainer(TAUTOLOGY, seed=2)
    result = tr.evaluate(600)
    if result.episodes:
        assert all(r in (-1.0, 0.0, 1.0) for r in result.episode_returns)


def test_model_warmup_trains_model_only():
    tr = grid_trainer(KEEPOUT, model_warmup_iters=1, seed=9)
    pi_before = tr.agent.policy_params.flat()
    fwd_before = tr.model.params.flat()
    tr.train_iteration()
    assert np.array_equal(tr.agent.policy_params.flat(), pi_before)
    assert not np.array_equal(tr.model.params.flat(), fwd_before)
    tr.train_iteration()
    assert not np.array_equal(tr.agent.policy_params.flat(), pi_before)
