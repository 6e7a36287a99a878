import copy
import pickle
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
    make_env,
)
from oracles import ReferenceCartPole, ReferenceGridStepper

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
        env._place((5, 5))
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


@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_cartpole_step_matches_reference_stepper(seed, d):
    """6000 steps with resets agree bit for bit with the numpy-array Euler
    step: states, rewards (d-step sums when wrapped) and done. A noisy
    balancing policy makes episodes long enough to reach the step cap."""
    env = CartPole(seed) if d == 1 else DelayedReward(CartPole(seed), d)
    ref = ReferenceCartPole(seed, d)
    rng = np.random.default_rng(seed + 1)
    assert env.state.tobytes() == ref.state.tobytes()
    ends = {"cap": 0, "bound": 0}
    for _ in range(6000):
        prev = ref.state.copy()
        if rng.random() < 0.75:
            action = int(prev[2] + 0.5 * prev[3] + 0.01 * prev[1] > 0)
        else:
            action = int(rng.integers(2))
        t = env.step(action)
        nxt, reward, done = ref.step(action)
        assert t.state.tobytes() == prev.tobytes()
        assert t.next_state.tobytes() == nxt.tobytes()
        assert (t.env_reward, t.done) == (reward, done)
        if done:
            ends["cap" if ref.steps >= CartPole.max_steps else "bound"] += 1
            assert env.reset().tobytes() == ref.reset().tobytes()
    assert ends["cap"] >= 1 and ends["bound"] >= 5


def test_cartpole_accelerations_match_reference():
    """Bit for bit on 40k random states, pole angles and angular velocities
    well beyond what an episode reaches (where rounding differences between
    ways of squaring show up)."""
    rng = np.random.default_rng(11)
    states = np.column_stack([rng.normal(0, 1, 20000), rng.normal(0, 2, 20000),
                              rng.uniform(-1.5, 1.5, 20000), rng.normal(0, 5, 20000)])
    for state in states:
        for force in (10.0, -10.0):
            got = CartPole.accelerations(state.tolist(), force)
            want = ReferenceCartPole.accelerations(state, force)
            assert got == (float(want[0]), float(want[1]))


def test_cartpole_transition_arrays_are_read_only():
    env = CartPole(3)
    t = env.step(1)
    with pytest.raises(ValueError):
        t.next_state[0] = 9.0
    assert env.state.flags.writeable  # `state` is still the caller's copy


def test_grid_transition_arrays_are_read_only():
    env = GridWorld(seed=3)
    first = env.step(2)
    second = env.step(2)
    assert second.state is first.next_state  # shared, not copied
    for arr in (first.state, first.next_state, second.next_state):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    assert env.state.flags.writeable  # `state` is still the caller's copy
    assert env.reset().flags.writeable


def test_grid_cells_share_one_state_array():
    """Envs in the same cell hand out one equal, read-only array for it, and
    set_state, reset and step all give the cell as float64 (x, y)."""
    a, b = GridWorld(seed=0), GridWorld(seed=1)
    start = np.array(a.layout.start, dtype=float)
    first_a, first_b = a.step(4), b.step(4)  # both step from the start cell
    assert first_a.state is first_b.state
    assert np.array_equal(first_a.state, start)
    with pytest.raises(ValueError):
        first_b.state[1] = 0.0

    def pos_array(env):
        return np.array(env.get_state()["pos"], dtype=float)

    snapshot = a.get_state()
    snapshot["pos"] = [3, 8]
    b.set_state(snapshot)
    assert np.array_equal(b.state, [3.0, 8.0])
    t = b.step(0)
    assert t.state.dtype == np.float64 and np.array_equal(t.state, [3.0, 8.0])
    rng = np.random.default_rng(0)
    resets = 0
    for _ in range(300):
        assert np.array_equal(t.next_state, pos_array(b))
        assert t.next_state.dtype == np.float64 and t.next_state.shape == (2,)
        assert not t.next_state.flags.writeable
        if t.done:
            reset = b.reset()
            assert reset.dtype == np.float64 and np.array_equal(reset, start)
            resets += 1
        t = b.step(int(rng.choice([0, 1, 2, 2])))  # drift up into the band
    assert resets > 0


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
        self.schema = StateSchema(("x",), {})
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


# -- what the trainer asks of an environment ------------------------------------------


def test_default_registry_grid():
    reg = GridWorld().registry()
    assert reg.names() == ["unsafe", "target"]
    assert reg.points("unsafe").shape == (36, 2)
    assert reg.points("target").tolist() == [[19.0, 19.0]]


def test_default_registry_cartpole_empty():
    assert len(CartPole().registry()) == 0


def test_default_registry_unwraps():
    """The delayed-reward wrapper answers with its inner env's registry,
    layout and end label."""
    inner = GridWorld()
    env = DelayedReward(inner, 4)
    assert len(env.registry()) == 2
    assert env.layout is inner.layout
    assert env.end_label([19, 19]) == "target"
    assert env.schema is inner.schema and env.max_steps == inner.max_steps
    assert DelayedReward(CartPole(), 2).layout is None


def test_delayed_reward_copies_and_pickles():
    """copy and pickle probe a bare instance before its state is restored;
    the pass-through must not recurse looking for `env`."""
    env = DelayedReward(GridWorld(seed=3), 4)
    env.step(1)
    for clone in (copy.deepcopy(env), pickle.loads(pickle.dumps(env))):
        assert clone.get_state() == env.get_state()
        assert np.array_equal(clone.state, env.state)
    with pytest.raises(AttributeError):
        DelayedReward.__new__(DelayedReward).layout


@pytest.mark.parametrize("cell, label", [
    ((19, 19), "target"),   # the target corner
    ((0, 9), "unsafe"),     # the band, left of the bridge
    ((9, 9), "cap"),        # on the bridge
    ((0, 0), "cap"),        # the start cell
    ((5, 5), "cap"),
])
def test_grid_end_label(cell, label):
    assert GridWorld().end_label(np.array(cell, dtype=np.float64)) == label


@pytest.mark.parametrize("state, label", [
    ((2.41, 0.0, 0.0, 0.0), "bound"),
    ((-2.41, 0.0, 0.0, 0.0), "bound"),
    ((0.0, 0.0, 0.21, 0.0), "bound"),
    ((0.0, 0.0, -0.21, 0.0), "bound"),
    ((2.4, 5.0, 0.2095, -5.0), "cap"),   # on the limits is inside
    ((0.0, 0.0, 0.0, 0.0), "cap"),
])
def test_cartpole_end_label(state, label):
    assert CartPole().end_label(np.array(state)) == label


def test_cartpole_end_label_agrees_with_step():
    """An episode that a step ends early is labelled "bound" from its
    last state; the same check decides both."""
    env = CartPole(seed=4)
    t = env.step(1)
    while not t.done:
        t = env.step(1)
    assert env._steps < env.max_steps
    assert env.end_label(t.next_state) == "bound"


def test_make_env():
    assert isinstance(make_env("gridworld", 0), GridWorld)
    assert isinstance(make_env("cartpole", 0), CartPole)
    assert isinstance(make_env("cartpole", 0, d=3), DelayedReward)
    with pytest.raises(ValueError):
        make_env("mountaincar", 0)
