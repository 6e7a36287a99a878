from fractions import Fraction

import numpy as np
import pytest

from logicrl import envs
from logicrl.envs import (
    CartPole,
    DelayedReward,
    EpisodeOver,
    GridLayout,
    GridWorld,
    default_registry,
    make_env,
    unwrap,
)
from oracles import ReferenceGridStepper

# exact acceleration values for one step from the zero state with +10 N,
# worked out by hand from the standard frictionless cart-pole equations:
#   temp      = F / (m_c + m_p)                  = 10 / 1.1
#   theta_acc = -temp / (l * (4/3 - m_p / 1.1))  = -600 / 41
#   x_acc     = temp - m_p * l * theta_acc / 1.1 = 400 / 41
X_ACC_FROM_REST = 400.0 / 41.0
THETA_ACC_FROM_REST = -600.0 / 41.0


# -- layout -------------------------------------------------------------------


def test_default_bridge_layout():
    layout = GridLayout.default_bridge()
    assert (layout.width, layout.height) == (20, 20)
    assert layout.start == (0, 0)
    assert layout.targets == {(19, 19)}
    assert len(layout.unsafe) == 36  # two rows of 20 minus the 2x2 bridge
    assert all(y in (9, 10) for _, y in layout.unsafe)
    assert (9, 9) not in layout.unsafe and (10, 10) not in layout.unsafe


def test_layout_map_round_trip(tmp_path):
    layout = GridLayout.default_bridge()
    path = tmp_path / "bridge.map"
    path.write_text(layout.to_text())
    loaded = GridLayout.from_file(path)
    assert loaded.unsafe == layout.unsafe
    assert loaded.targets == layout.targets
    assert loaded.start == layout.start


def test_layout_text_orientation():
    # bottom-left S must be the first character of the last line
    text = GridLayout.default_bridge().to_text()
    lines = text.strip().split("\n")
    assert lines[-1][0] == "S"
    assert lines[0][-1] == "T"


def test_layout_validation_errors():
    with pytest.raises(ValueError, match="initial"):
        GridLayout.from_text("..\nT.\n")
    with pytest.raises(ValueError, match="more than one"):
        GridLayout.from_text("ST\nS.\n")
    with pytest.raises(ValueError, match="unknown map character"):
        GridLayout.from_text("SX\n.T\n")
    with pytest.raises(ValueError, match="no safe path"):
        GridLayout.from_text("UT\nSU\n")
    with pytest.raises(ValueError, match="target"):
        GridLayout.from_text("..\nS.\n")


# -- transition distribution ----------------------------------------------------


def enumerate_distribution(env, cell, action):
    """Independent oracle: sum probabilities over the enumerated support."""
    pairs = env.transition_distribution(np.array(cell, dtype=float), action)
    total = sum(p for _, p in pairs)
    return pairs, total


def test_interior_distribution_action_up():
    env = GridWorld()
    pairs, total = enumerate_distribution(env, (5, 5), 2)
    assert total == 1
    probs = {tuple(int(v) for v in c): p for c, p in pairs}
    assert probs[(5, 6)] == Fraction(85, 100) + Fraction(3, 100)
    for cell in ((4, 5), (6, 5), (5, 4), (5, 5)):
        assert probs[cell] == Fraction(3, 100)


def test_interior_distribution_action_stay():
    env = GridWorld()
    pairs, total = enumerate_distribution(env, (7, 3), 4)
    assert total == 1
    probs = {tuple(int(v) for v in c): p for c, p in pairs}
    assert probs[(7, 3)] == Fraction(88, 100)
    assert len(probs) == 5


def test_corner_distribution_clamps():
    env = GridWorld()
    pairs, total = enumerate_distribution(env, (0, 0), 0)  # action left, clamped
    assert total == 1
    probs = {tuple(int(v) for v in c): p for c, p in pairs}
    # neighbourhood shrinks to {current, right, up}; slip mass respreads
    assert probs[(0, 0)] == Fraction(85, 100) + Fraction(5, 100)
    assert probs[(1, 0)] == Fraction(5, 100)
    assert probs[(0, 1)] == Fraction(5, 100)


def test_all_distributions_sum_to_one_exactly():
    env = GridWorld()
    for x in range(20):
        for y in range(20):
            for action in range(5):
                _, total = enumerate_distribution(env, (x, y), action)
                assert total == 1


def test_distribution_rejects_bad_inputs():
    env = GridWorld()
    with pytest.raises(ValueError):
        env.transition_distribution(np.array([5.0, 5.0]), 9)
    with pytest.raises(ValueError):
        env.transition_distribution(np.array([25.0, 5.0]), 1)


def test_transition_mean_matches_enumeration():
    env = GridWorld()
    pairs = env.transition_distribution(np.array([5.0, 5.0]), 2)
    expected = sum(np.asarray(c) * float(p) for c, p in pairs)
    assert np.allclose(env.transition_mean([5, 5], 2), expected)


def test_intended_cell_frequency():
    """10,000 seeded draws from a fixed interior cell land on the intended
    cell with frequency 0.88 within 0.01."""
    env = GridWorld(seed=123)
    hits = 0
    for _ in range(10_000):
        env._pos = (5, 5)
        env._steps = 0
        env._done = False
        t = env.step(2)
        hits += tuple(int(v) for v in t.next_state) == (5, 6)
    assert abs(hits / 10_000 - 0.88) < 0.01


# a 3x3 grid: every cell sits on an edge, so most moves clamp
SMALL_MAP = "..T\n.U.\nS..\n"


@pytest.mark.parametrize("layout_text", [None, SMALL_MAP], ids=["bridge", "small"])
def test_grid_step_matches_reference_stepper(layout_text):
    layout = GridLayout.from_text(layout_text) if layout_text else None
    env = GridWorld(layout, seed=11)
    ref = ReferenceGridStepper(env, seed=11)
    rng = np.random.default_rng(12)
    resets = 0
    for _ in range(5000):
        action = int(rng.integers(5))
        t = env.step(action)
        next_state, reward, done = ref.step(action)
        assert np.array_equal(t.next_state, next_state)
        assert (t.env_reward, t.done) == (reward, done)
        if t.done:
            env.reset()
            ref.reset()
            resets += 1
    assert resets > 0


def test_equal_layouts_share_one_table():
    bridge = GridLayout.default_bridge()
    table = GridWorld(bridge)._table
    assert GridWorld()._table is table
    assert GridWorld(GridLayout.from_text(bridge.to_text()), seed=3)._table is table
    moved = GridLayout(20, 20, [(x, 9) for x in range(9)], targets=[(19, 19)], start=(0, 0))
    assert GridWorld(moved)._table is not table


def test_table_built_once_per_layout(monkeypatch):
    builds = []
    build = envs._build_table

    def counting_build(layout):
        builds.append(layout)
        return build(layout)

    monkeypatch.setattr(envs, "_TABLES", {})
    monkeypatch.setattr(envs, "_build_table", counting_build)
    layout = GridLayout.default_bridge()
    for seed in range(20):
        GridWorld(layout, seed=seed)
    assert len(builds) == 1
    GridWorld(GridLayout.from_text(layout.to_text()))
    assert len(builds) == 1
    pairs = GridWorld(layout).transition_distribution(np.array([5.0, 5.0]), 2)
    assert all(isinstance(p, Fraction) for _, p in pairs)


# -- grid episodes --------------------------------------------------------------


def test_grid_reset_returns_start():
    env = GridWorld(seed=1)
    assert np.array_equal(env.reset(1), np.array([0.0, 0.0]))


def test_grid_seeded_determinism():
    env_a, env_b = GridWorld(), GridWorld()
    env_a.reset(77)
    env_b.reset(77)
    rng = np.random.default_rng(0)
    for _ in range(300):
        action = int(rng.integers(5))
        ta, tb = env_a.step(action), env_b.step(action)
        assert np.array_equal(ta.next_state, tb.next_state)
        assert ta.env_reward == tb.env_reward and ta.done == tb.done
        if ta.done:
            env_a.reset()
            env_b.reset()


def test_grid_reward_rule_over_episodes():
    env = GridWorld(seed=5)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        t = env.step(int(rng.integers(5)))
        label = env.layout.label((int(t.next_state[0]), int(t.next_state[1])))
        if label == "target":
            assert t.env_reward == 1.0 and t.done
        elif label == "unsafe":
            assert t.env_reward == -1.0 and t.done
        else:
            assert t.env_reward == 0.0
        assert 0 <= t.next_state[0] <= 19 and 0 <= t.next_state[1] <= 19
        if t.done:
            env.reset()


def test_grid_step_after_done_rejected():
    env = GridWorld(seed=2)
    rng = np.random.default_rng(2)
    while True:
        if env.step(int(rng.integers(5))).done:
            break
    with pytest.raises(EpisodeOver):
        env.step(0)
    env.reset()
    env.step(0)


def test_grid_episode_cap():
    # no unsafe cells, far-away target, stay-only actions: slip drift cannot
    # cover 38 cells in 400 steps, so the episode ends exactly at the cap
    layout = GridLayout(20, 20, unsafe=[], targets=[(19, 19)], start=(0, 0))
    env = GridWorld(layout, seed=9)
    steps = 0
    while True:
        t = env.step(4)  # stay
        steps += 1
        if t.done:
            break
    assert steps == env.max_steps == 400


def test_grid_reset_mid_episode_discards():
    env = GridWorld(seed=3)
    env.step(1)
    env.reset()
    assert np.array_equal(env.state, np.array([0.0, 0.0]))
    assert env._steps == 0


def test_grid_snapshot_round_trip():
    env = GridWorld(seed=4)
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = env.step(int(rng.integers(5)))
        if t.done:
            env.reset()
    snap = env.get_state()
    t1 = env.step(2)
    env.set_state(snap)
    t2 = env.step(2)
    assert np.array_equal(t1.next_state, t2.next_state)


# -- cart-pole ------------------------------------------------------------------


def test_cartpole_reset_range():
    env = CartPole(seed=0)
    for seed in range(20):
        state = env.reset(seed)
        assert np.all(np.abs(state) <= 0.05)


def test_cartpole_accelerations_symmetric_at_rest():
    zero = np.zeros(4)
    x_plus, th_plus = CartPole.accelerations(zero, 10.0)
    x_minus, th_minus = CartPole.accelerations(zero, -10.0)
    assert x_plus == -x_minus and th_plus == -th_minus
    assert x_plus > 0


def test_cartpole_euler_step_from_rest_hand_values():
    env = CartPole(seed=0)
    env._state = np.zeros(4)
    t = env.step(1)  # +10 N
    x, x_dot, theta, theta_dot = t.next_state
    assert x == 0.0 and theta == 0.0  # position updates use old velocities
    assert abs(x_dot - 0.02 * X_ACC_FROM_REST) < 1e-15
    assert abs(theta_dot - 0.02 * THETA_ACC_FROM_REST) < 1e-15
    assert t.env_reward == 1.0


def test_cartpole_terminates_on_angle():
    env = CartPole(seed=0)
    env._state = np.array([0.0, 0.0, 0.205, 2.0])
    t = env.step(1)
    assert abs(t.next_state[2]) > 0.2095
    assert t.done
    with pytest.raises(EpisodeOver):
        env.step(0)


def test_cartpole_terminates_on_position():
    env = CartPole(seed=0)
    env._state = np.array([2.39, 3.0, 0.0, 0.0])
    t = env.step(1)
    assert abs(t.next_state[0]) > 2.4
    assert t.done


def test_cartpole_full_episodes_stay_finite():
    env = CartPole(seed=11)
    rng = np.random.default_rng(11)
    steps = 0
    episodes = 0
    while episodes < 30:
        t = env.step(int(rng.integers(2)))
        steps += 1
        assert np.all(np.isfinite(t.next_state))
        if t.done:
            episodes += 1
            env.reset()
    assert steps >= 30


def test_cartpole_cap_500():
    env = CartPole(seed=0)
    env.reset(0)
    # holding the pole up artificially by resetting the state each step
    count = 0
    while True:
        env._state = np.zeros(4)
        count += 1
        if env.step(1).done:
            break
    assert count == 500


def test_cartpole_determinism():
    a, b = CartPole(seed=8), CartPole(seed=8)
    rng = np.random.default_rng(8)
    for _ in range(200):
        action = int(rng.integers(2))
        ta, tb = a.step(action), b.step(action)
        assert np.array_equal(ta.next_state, tb.next_state)
        if ta.done:
            a.reset()
            b.reset()


# -- delayed reward wrapper -------------------------------------------------------


def test_delayed_d1_identity():
    base = GridWorld(seed=6)
    wrapped = DelayedReward(GridWorld(seed=6), 1)
    rng = np.random.default_rng(6)
    for _ in range(200):
        action = int(rng.integers(5))
        tb, tw = base.step(action), wrapped.step(action)
        assert tb.env_reward == tw.env_reward
        if tb.done:
            base.reset()
            wrapped.reset()


class _ScriptedEnv:
    """Fixed reward stream for wrapper arithmetic tests."""

    max_steps = 100

    def __init__(self, rewards, done_at=None):
        self.rewards = list(rewards)
        self.done_at = done_at
        self.i = 0
        from logicrl.envs import ActionSpec, StateSchema
        self.schema = StateSchema(("x",), ("u",), {})
        self.action_spec = ActionSpec(1, ("noop",))

    @property
    def state(self):
        return np.array([float(self.i)])

    def reset(self, seed=None):
        self.i = 0
        return self.state

    def step(self, action):
        from logicrl.envs import Transition
        r = self.rewards[self.i]
        self.i += 1
        done = self.done_at is not None and self.i >= self.done_at
        return Transition(np.array([float(self.i - 1)]), action, r,
                          np.array([float(self.i)]), done)


def test_delayed_every_fifth_step():
    env = DelayedReward(_ScriptedEnv([1, 1, 1, 1, 1]), 5)
    emitted = [env.step(0).env_reward for _ in range(5)]
    assert emitted == [0, 0, 0, 0, 5]


def test_delayed_flush_at_episode_end():
    env = DelayedReward(_ScriptedEnv([1, 2, 3], done_at=3), 5)
    emitted = [env.step(0).env_reward for _ in range(3)]
    assert emitted == [0, 0, 6]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_delayed_conservation(d):
    rng = np.random.default_rng(d)
    base = GridWorld(seed=100 + d)
    wrapped = DelayedReward(GridWorld(seed=100 + d), d)
    raw_total = wrapped_total = 0.0
    done = False
    while not done:
        action = int(rng.integers(5))
        tb = base.step(action)
        tw = wrapped.step(action)
        raw_total += tb.env_reward
        wrapped_total += tw.env_reward
        done = tb.done
        assert tb.done == tw.done
        assert np.array_equal(tb.next_state, tw.next_state)
    assert raw_total == wrapped_total


def test_delayed_validation_and_snapshot():
    with pytest.raises(ValueError):
        DelayedReward(GridWorld(), 0)
    env = DelayedReward(GridWorld(seed=1), 3)
    env.step(1)
    snap = env.get_state()
    r1 = [env.step(1).env_reward for _ in range(3)]
    env.set_state(snap)
    r2 = [env.step(1).env_reward for _ in range(3)]
    assert r1 == r2


# -- registry and factory ---------------------------------------------------------


def test_default_registry_grid():
    env = GridWorld()
    reg = default_registry(env)
    assert set(reg.names()) == {"unsafe", "target"}
    assert reg.points("unsafe").shape == (36, 2)
    assert reg.points("target").shape == (1, 2)
    assert reg.slice_tag("unsafe") == "pos"
    assert reg.slice_tag("target") == "pos"


def test_default_registry_cartpole_empty():
    assert len(default_registry(CartPole())) == 0


def test_default_registry_unwraps():
    env = DelayedReward(GridWorld(), 4)
    assert len(default_registry(env)) == 2
    assert isinstance(unwrap(env), GridWorld)


def test_make_env():
    assert isinstance(make_env("gridworld", 0), GridWorld)
    assert isinstance(make_env("cartpole", 0), CartPole)
    assert isinstance(make_env("cartpole", 0, d=3), DelayedReward)
    with pytest.raises(ValueError):
        make_env("mountaincar", 0)
