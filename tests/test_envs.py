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
    StateSchema,
    make_env,
)
from oracles import (
    ReferenceCartPole,
    ReferenceGridStepper,
    random_grid_layout,
    reference_build_table,
    transition_mean,
)

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
    assert np.allclose(transition_mean(env, [5, 5], 2), expected)


def test_intended_cell_frequency():
    """10,000 seeded draws from a fixed interior cell land on the intended
    cell with frequency 0.88 within 0.01."""
    env = GridWorld(seed=123)
    hits = 0
    for _ in range(10_000):
        env._place((5, 5))
        env._steps = 0
        env._done = False
        next_state, _, _ = env.step(2)
        hits += tuple(int(v) for v in next_state) == (5, 6)
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
        next_state, reward, done = env.step(action)
        want_state, want_reward, want_done = ref.step(action)
        assert np.array_equal(next_state, want_state)
        assert (reward, done) == (want_reward, want_done)
        if done:
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


@pytest.mark.parametrize("make_layout", [
    GridLayout.default_bridge,
    lambda: GridLayout.from_file("configs/grid_bridge.map"),
    lambda: GridLayout.from_text("US.T.\n"),  # 1 row: every cell touches both y edges
    lambda: GridLayout.from_text("U\nT\n.\nS\n.\n"),  # 1 column
    lambda: GridLayout.from_text(".T\nS.\n"),  # 2x2: every cell is a corner
    lambda: GridLayout.from_text("ST\n"),
], ids=["bridge", "bridge_map", "5x1", "1x5", "2x2", "2x1"])
def test_table_equals_cell_by_cell_reference(make_layout):
    """The per-edge-shape table is the cell-by-cell one, bit for bit and in
    the same key order."""
    layout = make_layout()
    table = envs._build_table(layout)
    reference = reference_build_table(layout)
    assert table == reference
    assert list(table) == list(reference)


def test_table_equals_reference_on_random_layouts():
    rng = np.random.default_rng(7)
    for _ in range(50):
        layout = random_grid_layout(rng)
        assert envs._build_table(layout) == reference_build_table(layout), layout.to_text()


def test_table_computes_each_edge_shape_once(monkeypatch):
    """9 edge shapes x 5 actions on the 20x20 bridge, not one distribution
    per (non-terminal cell, action)."""
    calls = []
    distribution = envs._distribution

    def counting(layout, cell, label):
        calls.append(cell)
        return distribution(layout, cell, label)

    monkeypatch.setattr(envs, "_distribution", counting)
    envs._build_table(GridLayout.default_bridge())
    assert len(calls) == 45
    assert len(set(calls)) == 9


def test_state_schema_rejects_slices_it_cannot_read():
    """A slice is a non-empty tuple of ints naming existing components; a
    bad one is refused when the schema is built, not when a formula reads it."""
    for bad in ((0, 5), (0, -1), (), [0, 1], (0.0, 1)):
        with pytest.raises(ValueError, match="slice 'pos' must be a non-empty tuple"):
            StateSchema(("x", "y"), {"pos": bad})
    with pytest.raises(ValueError, match="at least one component"):
        StateSchema(())
    assert StateSchema(("x", "y"), {"pos": (1, 0)}).slices == {"pos": (1, 0)}


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
        next_a, reward_a, done_a = env_a.step(action)
        next_b, reward_b, done_b = env_b.step(action)
        assert np.array_equal(next_a, next_b)
        assert reward_a == reward_b and done_a == done_b
        if done_a:
            env_a.reset()
            env_b.reset()


def test_grid_reward_rule_over_episodes():
    env = GridWorld(seed=5)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        next_state, reward, done = env.step(int(rng.integers(5)))
        label = env.layout.label((int(next_state[0]), int(next_state[1])))
        if label == "target":
            assert reward == 1.0 and done
        elif label == "unsafe":
            assert reward == -1.0 and done
        else:
            assert reward == 0.0
        assert 0 <= next_state[0] <= 19 and 0 <= next_state[1] <= 19
        if done:
            env.reset()


def test_grid_step_after_done_rejected():
    env = GridWorld(seed=2)
    rng = np.random.default_rng(2)
    while True:
        if env.step(int(rng.integers(5)))[2]:
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
        _, _, done = env.step(4)  # stay
        steps += 1
        if done:
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
        if env.step(int(rng.integers(5)))[2]:
            env.reset()
    snap = env.get_state()
    next_1, reward_1, done_1 = env.step(2)
    env.set_state(snap)
    next_2, reward_2, done_2 = env.step(2)
    assert np.array_equal(next_1, next_2) and (reward_1, done_1) == (reward_2, done_2)


# -- cart-pole ------------------------------------------------------------------


def test_cartpole_reset_range():
    env = CartPole(seed=0)
    for seed in range(20):
        state = env.reset(seed)
        assert np.all(np.abs(state) <= 0.05)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_cartpole_step_matches_reference_stepper(seed, d):
    """6000 steps with resets agree bit for bit with the numpy-array Euler
    step: states, rewards (d-step sums when wrapped) and done. A noisy
    balancing policy makes episodes long enough to reach the step cap; across
    the three seeds, episodes end at every phase of each wrapper. Each next
    state is an aligned, read-only array."""
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
        next_state, reward, done = env.step(action)
        nxt, want_reward, want_done = ref.step(action)
        assert next_state.tobytes() == nxt.tobytes()
        assert next_state.flags.aligned and not next_state.flags.writeable
        assert (reward, done) == (want_reward, want_done)
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
    next_state, _, _ = env.step(1)
    with pytest.raises(ValueError):
        next_state[0] = 9.0
    assert env.state.flags.writeable  # `state` is still the caller's copy


def test_grid_transition_arrays_are_read_only():
    env = GridWorld(seed=3)
    first, _, _ = env.step(2)
    second, _, _ = env.step(2)
    for arr in (first, second):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    assert env.state.flags.writeable  # `state` is still the caller's copy
    assert env.reset().flags.writeable


def test_grid_cells_share_one_state_array():
    """Envs in the same cell hand out one equal, read-only array for it, and
    set_state, reset and step all give the cell as float64 (x, y)."""
    a, b = GridWorld(seed=0), GridWorld(seed=1)
    start = np.array(a.layout.start, dtype=float)
    shared, visits = {}, {a: set(), b: set()}  # cell -> its one array; env -> cells
    for env in (a, b):
        for _ in range(20):
            next_state, _, done = env.step(4)  # stay, near the start cell
            cell = tuple(int(v) for v in next_state)
            assert shared.setdefault(cell, next_state) is next_state
            visits[env].add(cell)
            if done:
                env.reset()
    assert visits[a] & visits[b]

    def pos_array(env):
        return np.array(env.get_state()["pos"], dtype=float)

    snapshot = a.get_state()
    snapshot["pos"] = [3, 8]
    b.set_state(snapshot)
    assert b.state.dtype == np.float64 and np.array_equal(b.state, [3.0, 8.0])
    next_state, _, done = b.step(0)
    rng = np.random.default_rng(0)
    resets = 0
    for _ in range(300):
        assert np.array_equal(next_state, pos_array(b))
        assert next_state.dtype == np.float64 and next_state.shape == (2,)
        assert not next_state.flags.writeable
        if done:
            reset = b.reset()
            assert reset.dtype == np.float64 and np.array_equal(reset, start)
            resets += 1
        next_state, _, done = b.step(int(rng.choice([0, 1, 2, 2])))  # drift up into the band
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
    next_state, reward, _ = env.step(1)  # +10 N
    x, x_dot, theta, theta_dot = next_state
    assert x == 0.0 and theta == 0.0  # position updates use old velocities
    assert abs(x_dot - 0.02 * X_ACC_FROM_REST) < 1e-15
    assert abs(theta_dot - 0.02 * THETA_ACC_FROM_REST) < 1e-15
    assert reward == 1.0


def test_cartpole_terminates_on_angle():
    env = CartPole(seed=0)
    env._state = np.array([0.0, 0.0, 0.205, 2.0])
    next_state, _, done = env.step(1)
    assert abs(next_state[2]) > 0.2095
    assert done
    with pytest.raises(EpisodeOver):
        env.step(0)


def test_cartpole_terminates_on_position():
    env = CartPole(seed=0)
    env._state = np.array([2.39, 3.0, 0.0, 0.0])
    next_state, _, done = env.step(1)
    assert abs(next_state[0]) > 2.4
    assert done


def test_cartpole_full_episodes_stay_finite():
    env = CartPole(seed=11)
    rng = np.random.default_rng(11)
    steps = 0
    episodes = 0
    while episodes < 30:
        next_state, _, done = env.step(int(rng.integers(2)))
        steps += 1
        assert np.all(np.isfinite(next_state))
        if done:
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
        if env.step(1)[2]:
            break
    assert count == 500


def test_cartpole_determinism():
    a, b = CartPole(seed=8), CartPole(seed=8)
    rng = np.random.default_rng(8)
    for _ in range(200):
        action = int(rng.integers(2))
        (next_a, _, done_a), (next_b, _, _) = a.step(action), b.step(action)
        assert np.array_equal(next_a, next_b)
        if done_a:
            a.reset()
            b.reset()


# -- delayed reward wrapper -------------------------------------------------------


def test_delayed_d1_identity():
    base = GridWorld(seed=6)
    wrapped = DelayedReward(GridWorld(seed=6), 1)
    rng = np.random.default_rng(6)
    for _ in range(200):
        action = int(rng.integers(5))
        (_, reward_b, done_b), (_, reward_w, _) = base.step(action), wrapped.step(action)
        assert reward_b == reward_w
        if done_b:
            base.reset()
            wrapped.reset()


class _ScriptedEnv:
    """Fixed reward stream for wrapper arithmetic tests; the wrapper reads
    its `_steps` as the phase."""

    def __init__(self, rewards, done_at=None):
        self.rewards = list(rewards)
        self.done_at = done_at
        self._steps = 0
        from logicrl.envs import ActionSpec, StateSchema
        self.schema = StateSchema(("x",), {})
        self.action_spec = ActionSpec(1, ("noop",))

    @property
    def state(self):
        return np.array([float(self._steps)])

    def reset(self, seed=None):
        self._steps = 0
        return self.state

    def step(self, action):
        r = self.rewards[self._steps]
        self._steps += 1
        done = self.done_at is not None and self._steps >= self.done_at
        return self.state, r, done


def test_delayed_every_fifth_step():
    env = DelayedReward(_ScriptedEnv([1, 1, 1, 1, 1]), 5)
    emitted = [env.step(0)[1] for _ in range(5)]
    assert emitted == [0, 0, 0, 0, 5]


def test_delayed_flush_at_episode_end():
    env = DelayedReward(_ScriptedEnv([1, 2, 3], done_at=3), 5)
    emitted = [env.step(0)[1] for _ in range(3)]
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
        next_b, reward_b, done = base.step(action)
        next_w, reward_w, done_w = wrapped.step(action)
        raw_total += reward_b
        wrapped_total += reward_w
        assert done == done_w
        assert np.array_equal(next_b, next_w)
    assert raw_total == wrapped_total


def test_delayed_validation_and_snapshot():
    with pytest.raises(ValueError):
        DelayedReward(GridWorld(), 0)
    env = DelayedReward(GridWorld(seed=1), 3)
    env.step(1)
    snap = env.get_state()
    r1 = [env.step(1)[1] for _ in range(3)]
    env.set_state(snap)
    r2 = [env.step(1)[1] for _ in range(3)]
    assert r1 == r2


# -- the step protocol shared by every env -------------------------------------------


ENVS_UNDER_CONTRACT = {
    "grid": lambda: GridWorld(seed=0),
    "cartpole": lambda: CartPole(seed=0),
    "grid_delayed": lambda: DelayedReward(GridWorld(seed=0), 3),
    "cartpole_delayed": lambda: DelayedReward(CartPole(seed=0), 5),
}


@pytest.mark.parametrize("name", sorted(ENVS_UNDER_CONTRACT))
def test_step_contract(name):
    """`step` returns exactly (next_state, reward, done): a read-only
    float64 array of the schema's size, a Python float and a Python bool.
    A step after `done` raises EpisodeOver, and an out-of-range action
    ValueError; a wrapper hands on its inner env's next_state uncopied."""
    env = ENVS_UNDER_CONTRACT[name]()
    wrapped = isinstance(env, DelayedReward)
    inner_steps = []
    if wrapped:
        inner_step = env.env.step

        def recording_step(action):
            inner_steps.append(inner_step(action))
            return inner_steps[-1]

        env.env.step = recording_step
    n_actions = env.action_spec.count
    rng = np.random.default_rng(0)
    for _ in range(3):  # three episodes, each stepped to its end
        done = False
        while not done:
            result = env.step(int(rng.integers(n_actions)))
            assert type(result) is tuple and len(result) == 3
            next_state, reward, done = result
            assert type(reward) is float and type(done) is bool
            assert next_state.dtype == np.float64 and next_state.shape == (env.schema.size,)
            assert not next_state.flags.writeable
            if wrapped:
                assert next_state is inner_steps[-1][0]
        with pytest.raises(EpisodeOver):
            env.step(0)
        env.reset()
    for action in (-1, n_actions):
        with pytest.raises(ValueError):
            env.step(action)


@pytest.mark.parametrize("name, changes", [
    ("grid", {"steps": 401}),
    ("cartpole", {"state": [float("nan")] * 4}),
    ("cartpole_delayed", {"inner": {"steps": -1}}),
])
def test_refused_snapshot_leaves_the_env_as_it_was(name, changes):
    """set_state checks the whole snapshot, the wrapper's inner one too,
    before it restores any of it."""
    env = ENVS_UNDER_CONTRACT[name]()
    env.step(1)
    snapshot = env.get_state()
    env.step(1)
    before = env.get_state()
    for key, value in changes.items():
        snapshot[key] = {**snapshot[key], **value} if isinstance(value, dict) else value
    with pytest.raises(ValueError):
        env.set_state(snapshot)
    assert env.get_state() == before


# -- what the trainer asks of an environment ------------------------------------------


def test_default_registry_grid():
    reg = GridWorld().registry()
    assert reg.names() == ["unsafe", "target"]
    assert reg.points("unsafe").shape == (36, 2)
    assert reg.points("target").tolist() == [[19.0, 19.0]]


def test_default_registry_cartpole_empty():
    assert CartPole().registry().names() == []


def test_default_registry_unwraps():
    """The delayed-reward wrapper answers with its inner env's registry,
    layout and end label."""
    inner = GridWorld()
    env = DelayedReward(inner, 4)
    assert len(env.registry().names()) == 2
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
    next_state, _, done = env.step(1)
    while not done:
        next_state, _, done = env.step(1)
    assert env._steps < env.max_steps
    assert env.end_label(next_state) == "bound"


def test_make_env():
    assert isinstance(make_env("gridworld", 0), GridWorld)
    assert isinstance(make_env("cartpole", 0), CartPole)
    assert isinstance(make_env("cartpole", 0, d=3), DelayedReward)
    with pytest.raises(ValueError):
        make_env("mountaincar", 0)
