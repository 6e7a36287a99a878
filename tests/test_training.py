import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from logicrl import constraints as fl
from logicrl import tensor
from logicrl.envs import GridWorld, make_env
from logicrl.training import (
    EvalResult,
    System3Config,
    Trainer,
    TrainingDiverged,
    evaluate_policy,
    run_steps,
)
from oracles import (
    paramset_with,
    reference_collect_rollout,
    reference_evaluate_policy,
    transition_mean,
)

TAUTOLOGY = "forall u in unsafe: 0 <= norm2(s - u)"
KEEPOUT = "forall u in unsafe: 1.5 <= norm2(s - u)"
UNSAT = "norm2(s - [5,5]) <= -1"
CARTPOLE_THETA = "configs/cartpole_theta.fl"


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
    roundtrip = System3Config(**json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert roundtrip == cfg


# -- policy features -------------------------------------------------------------


def test_policy_features_follow_the_env():
    """The grid policy reads one-hot cell indices, the cart-pole policy the
    raw state."""
    grid = Trainer(tiny_config(), "gridworld", seed=0)
    assert grid.agent.policy_config.layer_sizes[0] == 400
    assert grid.agent.featurize(np.array([[3.0, 2.0]])).tolist() == [[43]]
    cart = Trainer(tiny_config(), "cartpole", seed=0)
    assert cart.agent.policy_config.layer_sizes[0] == 4


# -- reward composition ----------------------------------------------------------


def test_compose_reward_cases():
    """The rollout trains on env reward plus constraint reward, or on the
    constraint reward alone (d = 5 cart-pole: env rewards are 0 or sums).
    A formula-free run of the same seed takes the same actions, so its
    rewards are the env rewards alone."""
    record, env_rewards, _ = Trainer(tiny_config(), "cartpole", seed=1, d=5)._collect_rollout()
    assert np.array_equal(env_rewards, record.rewards)
    assert env_rewards.max() > 1.0
    for use_env in (True, False):
        for text, r_c in (("-100 <= s[0]", 0.5), ("s[0] > 100", 0.0)):
            cfg = tiny_config(use_env_reward=use_env, constraint_reward_weight=0.5)
            tr = Trainer(cfg, "cartpole", seed=1, d=5, formula=fl.parse(text))
            _, rewards, _ = tr._collect_rollout()
            expected = env_rewards + r_c if use_env else np.full((8, 4), r_c)
            assert np.array_equal(rewards, expected)
            if use_env:  # the delayed env reward, read back
                assert (rewards - r_c).max() > 1.0


def test_constraint_reward_tautology_and_unsat():
    """The learned model's predictions are scored: a tautology grants the
    weight at every step, an unsatisfiable formula never does."""
    for text, r_c in ((TAUTOLOGY, 0.7), (UNSAT, 0.0)):
        tr = grid_trainer(text, use_env_reward=False, constraint_reward_weight=0.7)
        _, rewards, rates = tr._collect_rollout()
        assert np.array_equal(rewards, np.full((8, 4), r_c))
        assert rates["rc_rate"] == (1.0 if r_c else 0.0)


class _ExactMeanModel:
    """Stand-in forward model that predicts the analytic conditional mean."""

    def __init__(self, env):
        self.env = env

    def predict_batch(self, states, actions):
        return np.array([transition_mean(self.env, s, a) for s, a in zip(states, actions)])


def test_constraint_reward_near_band_with_perfect_model():
    """From a cell just below the unsafe band, stepping toward it lands the
    mean prediction inside the keep-out radius; stepping away stays outside.
    Distances were worked out by hand from the transition distribution."""
    tr = grid_trainer(KEEPOUT, rollout_length=1, batch_size=2, use_env_reward=False)
    tr.model = _ExactMeanModel(GridWorld())
    for env in tr.envs:
        env.set_state({**env.get_state(), "pos": [5, 8]})
    up_down = np.array([2, 3])
    tr.agent.act_batch = lambda states, rng: (up_down, np.zeros(2))
    _, rewards, _ = tr._collect_rollout()
    assert rewards[0].tolist() == [0.0, 1.0]   # up, toward the band; down, away


# -- the stepping loop ------------------------------------------------------------


def _rollout_case(name: str) -> Trainer:
    if name == "cartpole_theta_d5":
        cfg = tiny_config(rollout_length=30, use_env_reward=False)  # as the shipped config
        return Trainer(cfg, "cartpole", seed=3, d=5,
                       formula=fl.load_constraint_file(CARTPOLE_THETA))
    return grid_trainer(KEEPOUT if name == "grid_keepout" else None, seed=3, rollout_length=30)


@pytest.mark.parametrize("name", ["grid_keepout", "cartpole_theta_d5", "formula_free"])
def test_collect_rollout_matches_per_step_reference(name):
    """Predicting and scoring after the shared stepping loop gives the
    rollout, training rewards and rates of the loop that scores each step as
    it happens, over three rollouts in a row (episodes carry across)."""
    got_tr, want_tr = _rollout_case(name), _rollout_case(name)
    for tr in (got_tr, want_tr):
        tr.train_iteration()  # a fitted normalizer
        # a scrambled model, so that the predictions pass and fail the formula
        rng = np.random.default_rng(0)
        tr.model.params = tr.model.params.with_flat(rng.normal(size=tr.model.params.n_params()))
    completed = 0
    for _ in range(3):
        r, rewards, rates = got_tr._collect_rollout()
        want = reference_collect_rollout(want_tr)
        for key in ("states", "actions", "dones", "values", "next_states"):
            assert np.array_equal(getattr(r, key), want[key]), key
        assert np.array_equal(rewards, want["rewards"])
        assert rates == {key: want[key] for key in rates}
        assert r.completed == want["completed"]
        assert np.array_equal(got_tr._ep_returns, want_tr._ep_returns)
        completed += len(r.completed)
        if name != "formula_free":
            assert 0.0 < rates["rc_rate"] < 1.0 and rates["disagreement_rate"] > 0.0
        else:  # as evaluate_policy scores the empty constraint
            assert rates == {"rc_rate": 0.0, "true_satisfaction_rate": 1.0,
                             "disagreement_rate": 0.0}
    assert completed > 0


def test_run_steps_continues_across_calls():
    """Two calls of T steps, the second going on from the first's last
    states and running returns, record what one call of 2T steps does:
    this is how episodes carry across training iterations."""
    def start():
        tr = Trainer(tiny_config(), "cartpole", seed=5, d=5)
        states = np.stack([env.state for env in tr.envs])
        return tr.envs, states, lambda s: tr.agent.act_batch(s, tr.action_rng)

    envs, states, choose = start()
    whole = run_steps(envs, states, np.zeros(4), 40, choose)
    envs, states, choose = start()
    first = run_steps(envs, states, np.zeros(4), 20, choose)
    second = run_steps(envs, first.last_states, first.ep_returns, 20, choose)
    for key in ("states", "actions", "rewards", "dones", "values", "next_states"):
        joined = np.concatenate([getattr(first, key), getattr(second, key)])
        assert np.array_equal(getattr(whole, key), joined), key
    assert whole.completed == first.completed + second.completed
    assert whole.end_labels == first.end_labels + second.end_labels
    assert np.array_equal(whole.last_states, second.last_states)
    assert whole.ep_returns == second.ep_returns
    # an episode ended in each half, and one ran across the boundary
    assert first.completed and second.completed and any(first.ep_returns)


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


def test_objective_decomposition_scaling(monkeypatch):
    """Doubling lam exactly doubles the policy-side gradients the optimizers
    receive and leaves the model's unchanged; doubling beta does the reverse
    (checked on one identically-seeded iteration, so both trainers see the
    same batch)."""
    received = {}
    real_step = tensor.Optimizer.step

    def recording_step(self, params, grads):
        received[self] = grads.flat()
        return real_step(self, params, grads)

    monkeypatch.setattr(tensor.Optimizer, "step", recording_step)

    def updates(lam, beta):
        tr = grid_trainer(lam=lam, beta=beta, seed=7)
        tr.train_iteration()
        return tuple(received[tr.optimizers[name]] for name in ("policy", "value", "forward"))

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
                          rollout_length=6, entropy_coef=entropy_coef, seed=3)
        tr.agent.value_params = paramset_with(
            tr.agent.value_params, {"vf.w0": 0.0, "vf.b0": 100.0})
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
    tr.agent.policy_params = paramset_with(tr.agent.policy_params, {"pi.b1": np.nan})
    with pytest.raises(TrainingDiverged) as exc:
        tr.train_iteration()
    assert "iteration" in exc.value.dump


# -- determinism and resume ---------------------------------------------------------


def test_metric_stream_determinism():
    a = grid_trainer(KEEPOUT, seed=11)
    b = grid_trainer(KEEPOUT, seed=11)
    for _ in range(3):
        assert a.train_iteration() == b.train_iteration()


RESUMED_TRAINERS = {
    "grid": lambda: grid_trainer(KEEPOUT, seed=21),
    # 8 steps per rollout: the checkpoint falls inside a d = 5 window, so the
    # delayed reward's phase, which the bundle does not store, must resume
    "cartpole_d5": lambda: Trainer(tiny_config(), "cartpole", seed=21, d=5,
                                   formula=fl.load_constraint_file(CARTPOLE_THETA)),
}


@pytest.mark.parametrize("name", sorted(RESUMED_TRAINERS))
def test_checkpoint_resume_bit_identical(tmp_path, name):
    straight = RESUMED_TRAINERS[name]()
    for _ in range(2):
        straight.train_iteration()
    resumed_src = RESUMED_TRAINERS[name]()
    for _ in range(2):
        resumed_src.train_iteration()
    resumed_src.save_checkpoint(tmp_path / "ckpt")
    resumed = Trainer.load_checkpoint(tmp_path / "ckpt")
    assert_same_learners(resumed_src, resumed)
    assert resumed.steps == resumed_src.steps == 64
    assert resumed._eval_seed_base == resumed_src._eval_seed_base
    for env_src, env in zip(resumed_src.envs, resumed.envs):
        assert env.get_state() == env_src.get_state()
    for _ in range(2):
        m_straight = straight.train_iteration()
        m_resumed = resumed.train_iteration()
        assert m_straight == m_resumed
    assert_same_learners(straight, resumed)


def assert_same_learners(a: Trainer, b: Trainer):
    """Parameters and every optimizer's Adam moments and step count agree
    bit for bit, and each step count is the iteration."""
    for pa, pb in ((a.agent.policy_params, b.agent.policy_params),
                   (a.agent.value_params, b.agent.value_params),
                   (a.model.params, b.model.params)):
        assert pa.layout == pb.layout
        assert pa.flat().tobytes() == pb.flat().tobytes()
    assert list(a.optimizers) == list(b.optimizers) == ["policy", "value", "forward"]
    for key, oa in a.optimizers.items():
        ob = b.optimizers[key]
        assert oa.t == ob.t == a.iteration == b.iteration
        for moments_a, moments_b in ((oa.m, ob.m), (oa.v, ob.v)):
            assert moments_a.shape == moments_b.shape and moments_a.size
            assert moments_a.tobytes() == moments_b.tobytes()


@pytest.mark.parametrize("name", sorted(RESUMED_TRAINERS))
def test_unstepped_checkpoint_resume_bit_identical(tmp_path, name):
    """A trainer saved before its first iteration, whose optimizers hold
    Adam's +0.0 starting moments, reloads bit for bit and trains on exactly
    as the trainer that was never saved."""
    straight = RESUMED_TRAINERS[name]()
    saved = RESUMED_TRAINERS[name]()
    saved.save_checkpoint(tmp_path / "ckpt")
    resumed = Trainer.load_checkpoint(tmp_path / "ckpt")
    assert_same_learners(straight, resumed)
    for opt in resumed.optimizers.values():
        assert opt.m.tobytes() == opt.v.tobytes() == bytes(opt.m.nbytes)
    for _ in range(2):
        assert straight.train_iteration() == resumed.train_iteration()
    assert_same_learners(straight, resumed)


def test_load_checkpoint_refuses_a_bundle_that_mixes_steps(tmp_path):
    """Each optimizer steps once per iteration, so a .params file whose step
    count is not the bundle's iteration (here the policy of iteration 1 in
    the bundle of iteration 2, same seed and digest) is refused, naming
    the file."""
    trainer = grid_trainer(KEEPOUT, seed=3)
    trainer.train_iteration()
    trainer.save_checkpoint(tmp_path / "one")
    trainer.train_iteration()
    trainer.save_checkpoint(tmp_path / "two")
    shutil.copyfile(tmp_path / "one" / "policy.params", tmp_path / "two" / "policy.params")
    with pytest.raises(ValueError, match="unreadable checkpoint at .*policy.params holds "
                                         "step count 1, not the bundle's iteration 2"):
        Trainer.load_checkpoint(tmp_path / "two")


def test_grid_bundle_stores_only_touched_elements(tmp_path):
    """After 2 iterations the grid agent has visited few of its 400 cells,
    so the policy's one-hot rows of the others keep their seeded values and
    zero moments: the policy file's mask stores fewer elements than the net
    holds, and the bundle reloads bit for bit."""
    trainer = grid_trainer(KEEPOUT, seed=21)
    for _ in range(2):
        trainer.train_iteration()
    trainer.save_checkpoint(tmp_path / "ckpt")
    n = trainer.agent.policy_params.n_params()
    # the mask follows the 24-byte header
    data = (tmp_path / "ckpt" / "policy.params").read_bytes()
    stored = int(np.unpackbits(np.frombuffer(data, np.uint8, (n + 7) // 8, 24)).sum())
    assert 0 < stored < n
    assert_same_learners(trainer, Trainer.load_checkpoint(tmp_path / "ckpt"))


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

    # a damaged or missing .params file: a ValueError naming the file, never
    # a zipfile, EOF or key error
    grid_trainer(KEEPOUT, seed=3).save_checkpoint(tmp_path / "ckpt")
    policy = tmp_path / "ckpt" / "policy.params"
    data = policy.read_bytes()
    for damaged in (data[: len(data) // 2], data[:-10], b"", b"not an archive\n"):
        policy.write_bytes(damaged)
        with pytest.raises(ValueError, match="unreadable checkpoint at .*policy.params"):
            Trainer.load_checkpoint(tmp_path / "ckpt")
    policy.unlink()
    with pytest.raises(ValueError, match="unreadable checkpoint at .*policy.params"):
        Trainer.load_checkpoint(tmp_path / "ckpt")


TAMPERED_SCALARS = [
    ("seed", None), ("seed", -1), ("seed", 1.5),
    ("iteration", -4), ("iteration", "x"), ("iteration", True),
    ("eval_count", -1), ("eval_count", "x"),
    ("d", 0), ("d", 2.0),
    ("ep_returns", [float("nan"), 0.0, 0.0, 0.0]), ("ep_returns", [0.0, "x", 0.0, 0.0]),
    ("last_mean_ep_return", float("inf")), ("last_mean_ep_return", None),
    ("layout", []), ("formula", ""),
    ("numeric_setting", None), ("numeric_setting", {"numpy": "2.4.6"}),
]


def test_load_checkpoint_rejects_tampered_state(tmp_path):
    """A state.json missing any top-level key, whose config holds an
    unknown key, whose seed, d, counts, returns, normalizer or numeric
    setting record are out of range, or of the 0.4.0 format, is refused with
    ValueError, never a KeyError or TypeError."""
    ckpt = tmp_path / "ckpt"
    grid_trainer(KEEPOUT, seed=3).save_checkpoint(ckpt)
    good = json.loads((ckpt / "state.json").read_text())
    assert not {"steps", "eval_seed_base"} & set(good)  # derived, not stored
    tampered = [({k: v for k, v in good.items() if k != key}, key) for key in good]
    tampered.append(({**good, "config": {**good["config"], "bogus": 1}}, "bogus config key"))
    tampered += [({**good, key: value}, f"{key} {value!r}") for key, value in TAMPERED_SCALARS]
    tampered.append(({**good, "normalizer": {**good["normalizer"], "mean": [0.0] * 3}},
                     "3-long normalizer mean"))
    # the 0.4.0 format stored the derived steps, evaluation seed base and phase
    tampered.append(({**good, "version": "logicrl-0.4.0", "steps": 0, "eval_seed_base": 1},
                     "version"))
    for state, what in tampered:
        (ckpt / "state.json").write_text(json.dumps(state))
        message = "version" if what == "version" else "unreadable checkpoint at"
        with pytest.raises(ValueError, match=message):
            Trainer.load_checkpoint(ckpt)
    (ckpt / "state.json").write_text(json.dumps(good))
    assert Trainer.load_checkpoint(ckpt).iteration == good["iteration"]


@pytest.mark.parametrize("key", ["ep_returns", "env_snapshots"])
@pytest.mark.parametrize("length", [1, 5])
def test_load_checkpoint_rejects_lists_not_one_per_env(tmp_path, key, length):
    """ep_returns and env_snapshots hold one entry per environment; a bundle
    with fewer or more than batch_size (4) is refused, not half restored."""
    ckpt = tmp_path / "ckpt"
    grid_trainer(KEEPOUT, seed=3).save_checkpoint(ckpt)
    state = json.loads((ckpt / "state.json").read_text())
    state[key] = (state[key] * 2)[:length]
    (ckpt / "state.json").write_text(json.dumps(state))
    with pytest.raises(ValueError, match=f"unreadable checkpoint at .*{length} {key}"):
        Trainer.load_checkpoint(ckpt)


TAMPERED_SNAPSHOTS = {
    "grid_running_in_unsafe_cell": ("gridworld", {"pos": [5, 9], "done": False}),
    "grid_running_in_target_cell": ("gridworld", {"pos": [19, 19], "done": False}),
    "grid_off_grid_cell": ("gridworld", {"pos": [25, 3]}),
    "grid_steps_past_cap": ("gridworld", {"steps": 401}),
    "grid_done_not_a_bool": ("gridworld", {"done": "false"}),
    "cartpole_state_of_length_3": ("cartpole", {"inner": {"state": [0.0, 0.0, 0.0]}}),
    "cartpole_state_nan": ("cartpole", {"inner": {"state": [float("nan")] * 4}}),
    "cartpole_running_past_the_bound": ("cartpole", {"inner": {"state": [2.5, 0.0, 0.0, 0.0],
                                                               "done": False}}),
    "cartpole_pending_inf": ("cartpole", {"pending": float("inf")}),
}


@pytest.mark.parametrize("name", sorted(TAMPERED_SNAPSHOTS))
def test_load_checkpoint_rejects_tampered_env_snapshot(tmp_path, name):
    """An env snapshot that no episode can reach is refused when the bundle
    is loaded, naming the snapshot, not reported later as a training fault."""
    env_id, changes = TAMPERED_SNAPSHOTS[name]
    if env_id == "gridworld":
        trainer = grid_trainer(KEEPOUT, seed=3)
    else:
        trainer = Trainer(tiny_config(), "cartpole", seed=3, d=5,
                          formula=fl.load_constraint_file(CARTPOLE_THETA))
    trainer.train_iteration()
    ckpt = tmp_path / "ckpt"
    trainer.save_checkpoint(ckpt)
    state = json.loads((ckpt / "state.json").read_text())
    snapshot = state["env_snapshots"][0]
    for key, value in changes.items():
        snapshot[key] = {**snapshot[key], **value} if isinstance(value, dict) else value
    (ckpt / "state.json").write_text(json.dumps(state))
    with pytest.raises(ValueError, match="unreadable checkpoint at .*env snapshot 0: "):
        Trainer.load_checkpoint(ckpt)


def test_load_checkpoint_refuses_old_text_format(tmp_path):
    """A bundle of the text format (paramset-v1 files, optimizer moments as
    JSON lists in state.json) is refused by its version, before any .params
    file is read."""
    ckpt = tmp_path / "old"
    grid_trainer(KEEPOUT, seed=3).save_checkpoint(ckpt)
    state = json.loads((ckpt / "state.json").read_text())
    state["version"] = "logicrl-0.1.0"
    moments = {"kind": "adam", "learning_rate": 1e-3, "t": 1,
               "m": {"pi.b0": [0.5, -0.25]}, "v": {"pi.b0": [0.125, 0.0625]}}
    state["optimizers"] = {"policy": moments, "value": moments, "forward": moments}
    state["model_optimizer"] = {"kind": "adam", "learning_rate": 1e-3, "t": 0,
                                "m": {}, "v": {}}
    (ckpt / "state.json").write_text(json.dumps(state, indent=1, sort_keys=True))
    for name in ("policy", "value", "forward"):
        (ckpt / f"{name}.params").write_text(
            "paramset-v1\nversion_tag v1\nconfig -\nentries 1\nb0 2\ndata\n0.5 -0.25\n")
    with pytest.raises(ValueError, match="version 'logicrl-0.1.0' does not match"):
        Trainer.load_checkpoint(ckpt)


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


def _eval_case(name: str):
    """A trainer two iterations in (fitted normalizer, moved weights) and
    the bound, model and horizon that one comparison case evaluates with."""
    if name in ("cartpole_theta", "mid_episode"):
        tr = Trainer(tiny_config(), "cartpole", seed=4,
                     formula=fl.load_constraint_file(CARTPOLE_THETA))
    else:
        tr = grid_trainer(KEEPOUT, seed=7)  # its greedy walk passes the unsafe cells
    for _ in range(2):
        tr.train_iteration()
    bound, model = tr.bound, tr.model
    if name == "no_bound":
        bound = None
    elif name == "no_model":
        model = None
    elif name == "scrambled_model":
        rng = np.random.default_rng(0)
        model.params = model.params.with_flat(rng.normal(size=model.params.n_params()))
    return tr, bound, model, 157 if name == "mid_episode" else 300


@pytest.mark.parametrize("name", ["grid_keepout", "cartpole_theta", "no_bound",
                                  "no_model", "scrambled_model", "mid_episode"])
def test_evaluate_policy_matches_per_step_reference(name):
    """Scoring the formula once over the evaluation stream gives every
    EvalResult field exactly as scoring each step's states as it happens."""
    tr, bound, model, horizon = _eval_case(name)
    env = make_env(tr.env_id, 77, tr.layout, 1)
    got = evaluate_policy(tr.agent, env, bound, horizon, 77, model)
    want = reference_evaluate_policy(tr.agent, make_env(tr.env_id, 77, tr.layout, 1),
                                     bound, horizon, 77, model)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    if name == "scrambled_model":
        assert got.disagreement_rate > 0.0
    if name in ("grid_keepout", "cartpole_theta"):
        assert 0 < got.violation_count < horizon
    if name == "mid_episode":  # the last episode is cut off by the horizon
        assert got.episodes >= 1 and env.get_state()["steps"] > 0


def test_evaluate_policy_random_uniform_regression_value():
    """Pinned by a pre-build Monte-Carlo run: a uniform-random policy on the
    default layout satisfies the lb=1.5 keep-out formula on 97.242% of 1e5
    steps (env seed 0, action rng seed 0). The oracle measured distances
    directly; here the same trajectory is scored through the bound formula."""
    env = GridWorld(seed=0)
    tr = grid_trainer(KEEPOUT)
    bound = fl.bind(fl.parse(KEEPOUT), tr.registry, tr.schema)
    rng = np.random.default_rng(0)
    next_states = []
    for _ in range(100_000):
        next_state, _, done = env.step(int(rng.integers(5)))
        next_states.append(next_state)
        if done:
            env.reset()
    assert bound.evaluate_batch(np.array(next_states)).sum() / 100_000 == 0.97242


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


# Run in a fresh process: glibc raises its own thresholds after freeing a large
# mmapped block, so an earlier test in this process could hide the faults.
FAULTS_PER_ITERATION = """
import resource, sys
from logicrl.constraints import load_constraint_file
from logicrl.harness import _layout_for, build_run_config, parse_kv_file
from logicrl.training import Trainer

run = build_run_config(parse_kv_file(sys.argv[1]))
tr = Trainer(run.sys3, run.env, seed=0, layout=_layout_for(run.env, run.layout), d=run.d,
             formula=load_constraint_file(run.constraint))
for _ in range(10):
    tr.train_iteration()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    tr.train_iteration()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
"""


@pytest.mark.skipif(not tensor._keep_freed_heap_mapped(),
                    reason="the heap setting applies on glibc only")
@pytest.mark.parametrize("config_file", ["configs/grid_bridge.cfg", "configs/cartpole_delayed.cfg"])
def test_update_pass_does_not_refault_the_heap(config_file):
    """With a shipped config's shapes, the 30 training iterations after a
    10-iteration warm-up (while the heap is still growing) fault in almost
    no memory: the update pass's freed activations stay mapped for the next
    iteration (tensor's heap setting). With glibc's default thresholds this
    reads about 620 (grid) and 380 (cart-pole) minor faults per iteration."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_ITERATION, config_file],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 50, proc.stdout
