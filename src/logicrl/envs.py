"""Seedable experiment environments behind one interface.

Two environments: a 20x20 slippery grid world whose target sits behind a
bridge through a band of unsafe cells, and the classic cart-pole balancing
task. Both expose reset/step, a state schema with named slices, a discrete
action spec, and what the trainer asks of an environment: its grid `layout`,
anchor `registry()` and episode `end_label`. A wrapper
defers environment reward into d-step sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .constraints import ObjectRegistry

GRID_ACTIONS = ("left", "right", "up", "down", "stay")
_GRID_MOVES = {"left": (-1, 0), "right": (1, 0), "up": (0, 1), "down": (0, -1), "stay": (0, 0)}

INTENDED_PROB = Fraction(85, 100)
SLIP_PROB = Fraction(15, 100)

CART_X_LIMIT = 2.4
POLE_ANGLE_LIMIT = 0.2095


class EpisodeOver(RuntimeError):
    """Raised on step() after the episode has ended (reset first)."""


@dataclass(frozen=True)
class StateSchema:
    """Names and named index slices of the flat state vector."""

    names: tuple[str, ...]
    slices: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class ActionSpec:
    count: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.count < 1 or len(self.labels) != self.count:
            raise ValueError("action count must be >= 1 and match labels")


@dataclass
class Transition:
    """One environment step."""

    state: np.ndarray
    action: int
    env_reward: float
    next_state: np.ndarray
    done: bool


# ---------------------------------------------------------------------------
# Grid layout


_MAP_LABELS = {".": "safe", "U": "unsafe", "T": "target", "S": "initial"}
_MAP_CHARS = {label: ch for ch, label in _MAP_LABELS.items()}


class GridLayout:
    """Cell labels of the grid: safe/unsafe/target plus one initial cell.

    Map text is height lines of width characters, top row first, one
    _MAP_LABELS character per cell. Coordinates are (x, y) with (0, 0) at
    the bottom-left.
    """

    def __init__(self, width: int, height: int, unsafe, targets, start):
        self.width = width
        self.height = height
        self.unsafe = frozenset(tuple(c) for c in unsafe)
        self.targets = frozenset(tuple(c) for c in targets)
        self.start = tuple(start)
        self._validate()

    def _validate(self) -> None:
        cells = [self.start, *self.unsafe, *self.targets]
        for x, y in cells:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"cell {(x, y)} outside {self.width}x{self.height} grid")
        if not self.targets:
            raise ValueError("layout needs at least one target cell")
        if self.start in self.unsafe or self.start in self.targets:
            raise ValueError("initial cell must be a plain safe cell")
        if self.unsafe & self.targets:
            raise ValueError("a cell cannot be both unsafe and target")
        if not self._safe_path_exists():
            raise ValueError("no safe path from the initial cell to any target")

    def _safe_path_exists(self) -> bool:
        seen = {self.start}
        frontier = [self.start]
        while frontier:
            x, y = frontier.pop()
            if (x, y) in self.targets:
                return True
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nxt = (x + dx, y + dy)
                if (
                    0 <= nxt[0] < self.width
                    and 0 <= nxt[1] < self.height
                    and nxt not in self.unsafe
                    and nxt not in seen
                ):
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def in_bounds(self, cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def label(self, cell) -> str:
        cell = tuple(cell)
        if cell in self.unsafe:
            return "unsafe"
        if cell in self.targets:
            return "target"
        if cell == self.start:
            return "initial"
        return "safe"

    def to_text(self) -> str:
        return "".join(
            "".join(_MAP_CHARS[self.label((x, y))] for x in range(self.width)) + "\n"
            for y in range(self.height - 1, -1, -1)
        )

    @staticmethod
    def from_text(text: str) -> "GridLayout":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError("empty map")
        width = len(rows[0])
        height = len(rows)
        if any(len(r) != width for r in rows):
            raise ValueError("map rows have inconsistent widths")
        cells = {label: [] for label in _MAP_LABELS.values()}
        for i, row in enumerate(rows):
            for x, ch in enumerate(row):
                if ch not in _MAP_LABELS:
                    raise ValueError(f"unknown map character {ch!r} at row {i}, column {x}")
                if ch == "S" and cells["initial"]:
                    raise ValueError("map has more than one initial cell")
                cells[_MAP_LABELS[ch]].append((x, height - 1 - i))
        if not cells["initial"]:
            raise ValueError("map has no initial cell 'S'")
        return GridLayout(width, height, cells["unsafe"], cells["target"], cells["initial"][0])

    @staticmethod
    def from_file(path) -> "GridLayout":
        with open(path) as fp:
            return GridLayout.from_text(fp.read())

    @staticmethod
    def default_bridge() -> "GridLayout":
        """20x20 grid, unsafe band at rows 9-10 with a 2-column bridge at
        columns 9-10, target at the far corner, start at the bottom-left."""
        unsafe = [
            (x, y)
            for y in (9, 10)
            for x in range(20)
            if x not in (9, 10)
        ]
        return GridLayout(20, 20, unsafe, targets=[(19, 19)], start=(0, 0))


# ---------------------------------------------------------------------------
# Slippery grid world


def _distribution(
    layout: GridLayout, cell, action_label: str
) -> list[tuple[tuple[int, int], Fraction]]:
    """Exact next-cell distribution of one (cell, action), sorted by cell."""
    dx, dy = _GRID_MOVES[action_label]
    intended = (cell[0] + dx, cell[1] + dy)
    if not layout.in_bounds(intended):
        intended = cell
    neighbourhood = [cell] + [
        (cell[0] + mx, cell[1] + my) for mx, my in _GRID_MOVES.values() if (mx, my) != (0, 0)
    ]
    neighbourhood = [c for c in neighbourhood if layout.in_bounds(c)]
    share = SLIP_PROB / len(neighbourhood)
    probs: dict[tuple[int, int], Fraction] = {c: share for c in neighbourhood}
    probs[intended] = probs.get(intended, Fraction(0)) + INTENDED_PROB
    return sorted(probs.items())


def _outcome(layout: GridLayout, cell) -> tuple[tuple[int, int], float, bool]:
    """(cell, reward, terminal) of entering `cell`."""
    label = layout.label(cell)
    if label == "target":
        return cell, 1.0, True
    if label == "unsafe":
        return cell, -1.0, True
    return cell, 0.0, False


def _edge_rep(v: int, size: int) -> int:
    """The coordinate that stands for `v` along an axis of `size` cells: an
    edge coordinate stands for itself, every interior one for 1."""
    return v if v in (0, size - 1) else 1


def _build_table(layout: GridLayout) -> dict:
    """Sampling table of a layout: for each non-terminal cell, one entry per
    action holding the float cumulative probabilities of its next cells
    (last pinned to 1.0) and each next cell's outcome.

    A (cell, action) distribution depends only on which grid edges the cell
    touches, and shifting it keeps its cell order. So each (edge shape,
    action) is computed once, on the shape's representative cell, as one
    shared cum tuple plus next-cell offsets that every cell of the shape
    shifts by its own position."""
    w, h = layout.width, layout.height
    shapes = {}
    for rx in sorted({_edge_rep(x, w) for x in range(w)}):
        for ry in sorted({_edge_rep(y, h) for y in range(h)}):
            entries = []
            for label in GRID_ACTIONS:
                dist = _distribution(layout, (rx, ry), label)
                cum = np.cumsum([float(p) for _, p in dist])
                cum[-1] = 1.0
                offsets = tuple((cx - rx, cy - ry) for (cx, cy), _ in dist)
                entries.append((tuple(cum.tolist()), offsets))
            shapes[rx, ry] = entries
    outcomes = {(x, y): _outcome(layout, (x, y)) for x in range(w) for y in range(h)}
    table = {}
    for x in range(w):
        for y in range(h):
            if outcomes[x, y][2]:
                continue  # terminal cells are never stepped from
            table[x, y] = tuple(
                (cum, tuple(outcomes[x + ox, y + oy] for ox, oy in offsets))
                for cum, offsets in shapes[_edge_rep(x, w), _edge_rep(y, h)]
            )
    return table


# One table per distinct layout value, shared by every GridWorld of that
# layout: building one takes milliseconds, and a trainer makes one env per
# batch slot plus one per evaluation.
# Keyed by value, not identity, because checkpoints rebuild their layout
# from text. Entries are tuples and nothing writes to a table once built.
_TABLES: dict[tuple, dict] = {}


def _transition_table(layout: GridLayout) -> dict:
    key = (layout.width, layout.height, layout.unsafe, layout.targets, layout.start)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _build_table(layout)
    return table


def _frozen(arr: np.ndarray) -> np.ndarray:
    """`arr`, made read-only: an env hands it out without copying it."""
    arr.flags.writeable = False
    return arr


# One read-only (x, y) state array per cell, shared by every GridWorld: a
# step hands out the cell's array instead of building a new one.
_CELL_STATES: dict[tuple[int, int], np.ndarray] = {}


def _cell_state(cell: tuple[int, int]) -> np.ndarray:
    arr = _CELL_STATES.get(cell)
    if arr is None:
        arr = _CELL_STATES[cell] = _frozen(np.array(cell, dtype=np.float64))
    return arr


class GridWorld:
    """Slippery grid: actions succeed with probability 0.85, otherwise the
    agent moves uniformly within its von Neumann neighbourhood including the
    current cell. Intended moves off the grid resolve to staying; off-grid
    neighbourhood cells are dropped and their mass respread uniformly.

    Rewards: +1 entering a target (terminal), -1 entering an unsafe cell
    (terminal), 0 otherwise; episodes cap at `max_steps`.

    Steps sample from a transition table built once per distinct layout and
    shared read-only by every instance with an equal layout;
    `transition_distribution` gives the exact probabilities it is built from.
    """

    max_steps = 400

    def __init__(self, layout: Optional[GridLayout] = None, seed: int = 0):
        self.layout = layout or GridLayout.default_bridge()
        self.schema = StateSchema(names=("x", "y"), slices={"pos": (0, 1)})
        self.action_spec = ActionSpec(5, GRID_ACTIONS)
        self._table = _transition_table(self.layout)
        self.rng = np.random.default_rng(seed)
        self._place(self.layout.start)
        self._steps = 0
        self._done = False

    # -- dynamics -----------------------------------------------------------

    def transition_distribution(self, state, action: int):
        """Exact next-state distribution as (state, Fraction) pairs."""
        if not 0 <= action < self.action_spec.count:
            raise ValueError(f"invalid action index {action}")
        cell = (int(state[0]), int(state[1]))
        if not self.layout.in_bounds(cell):
            raise ValueError(f"state {cell} outside the grid")
        dist = _distribution(self.layout, cell, GRID_ACTIONS[action])
        return [(np.array(c, dtype=np.float64), p) for c, p in dist]

    def transition_mean(self, state, action: int) -> np.ndarray:
        """Exact conditional mean of the next state."""
        pairs = self.transition_distribution(state, action)
        return np.sum([np.asarray(c) * float(p) for c, p in pairs], axis=0)

    # -- what the trainer asks of an environment ------------------------------

    def registry(self) -> ObjectRegistry:
        """Anchor sets: the unsafe and target cell centers."""
        registry = ObjectRegistry()
        for name, cells in (("unsafe", self.layout.unsafe), ("target", self.layout.targets)):
            cells = sorted(cells)
            registry.add_set(name, np.array(cells, dtype=np.float64).reshape(len(cells), 2))
        return registry

    def end_label(self, state) -> str:
        """Why an episode that ended in `state` ended: target, unsafe or cap."""
        label = self.layout.label((int(state[0]), int(state[1])))
        return label if label in ("target", "unsafe") else "cap"

    # -- episode interface ----------------------------------------------------

    def _place(self, cell: tuple[int, int]) -> None:
        """Move to `cell`: the table key and the cell's read-only state array."""
        self._pos = cell
        self._state = _cell_state(cell)

    @property
    def state(self) -> np.ndarray:
        return self._state.copy()

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self._place(self.layout.start)
        self._steps = 0
        self._done = False
        return self.state

    def step(self, action: int) -> Transition:
        """One table lookup and one uniform draw. The transition holds the
        shared read-only state arrays of its two cells: no new array."""
        if self._done:
            raise EpisodeOver("episode has ended; call reset()")
        if not 0 <= action < self.action_spec.count:
            raise ValueError(f"invalid action index {action}")
        cum, outcomes = self._table[self._pos][action]
        u = self.rng.random()
        i = 0
        while cum[i] <= u:  # first entry above u: searchsorted(side="right")
            i += 1
        nxt, reward, done = outcomes[i]
        state = self._state
        self._place(nxt)
        self._steps += 1
        if self._steps >= self.max_steps:
            done = True
        self._done = done
        return Transition(state, action, reward, self._state, done)

    # -- snapshot -------------------------------------------------------------

    def get_state(self) -> dict:
        return {
            "pos": list(self._pos),
            "steps": self._steps,
            "done": self._done,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, snapshot: dict) -> None:
        self._place(tuple(snapshot["pos"]))
        self._steps = snapshot["steps"]
        self._done = snapshot["done"]
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = snapshot["rng"]


# ---------------------------------------------------------------------------
# Cart-pole


class CartPole:
    """Classic cart-pole balancing with Euler integration at 0.02 s.

    State (x, x_dot, theta, theta_dot); two actions push the cart with a
    fixed 10 N force left or right. +1 reward per step; the episode ends when
    |x| > 2.4, |theta| > 0.2095 rad, or after `max_steps` steps.
    """

    max_steps = 500
    layout = None

    gravity = 9.8
    mass_cart = 1.0
    mass_pole = 0.1
    half_length = 0.5
    force_mag = 10.0
    dt = 0.02

    def __init__(self, seed: int = 0):
        self.schema = StateSchema(names=("x", "x_dot", "theta", "theta_dot"))
        self.action_spec = ActionSpec(2, ("push_left", "push_right"))
        self.rng = np.random.default_rng(seed)
        self._state = np.zeros(4)
        self._steps = 0
        self._done = False
        self.reset(seed)

    @staticmethod
    def accelerations(state, force: float) -> tuple[float, float]:
        """Cart and pole angular acceleration for the standard dynamics."""
        _, _, theta, theta_dot = state
        total = CartPole.mass_cart + CartPole.mass_pole
        pm_l = CartPole.mass_pole * CartPole.half_length
        sin, cos = math.sin(theta), math.cos(theta)
        # `**2`, not `x * x`: the two round differently, and `**2` keeps the
        # trajectory bit-identical to numpy-scalar arithmetic
        temp = (force + pm_l * theta_dot**2 * sin) / total
        theta_acc = (CartPole.gravity * sin - cos * temp) / (
            CartPole.half_length * (4.0 / 3.0 - CartPole.mass_pole * cos**2 / total)
        )
        x_acc = temp - pm_l * theta_acc * cos / total
        return float(x_acc), float(theta_acc)

    @staticmethod
    def _out_of_bounds(x, theta) -> bool:
        return abs(x) > CART_X_LIMIT or abs(theta) > POLE_ANGLE_LIMIT

    def registry(self) -> ObjectRegistry:
        """No anchor sets: cart-pole formulas bound state components."""
        return ObjectRegistry()

    def end_label(self, state) -> str:
        """Why an episode that ended in `state` ended: bound or cap."""
        return "bound" if self._out_of_bounds(state[0], state[2]) else "cap"

    @property
    def state(self) -> np.ndarray:
        return self._state.copy()

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self._state = _frozen(self.rng.uniform(-0.05, 0.05, size=4))
        self._steps = 0
        self._done = False
        return self.state

    def step(self, action: int) -> Transition:
        """One Euler step in Python floats. The transition shares the
        env's read-only state arrays: one new array per step."""
        if self._done:
            raise EpisodeOver("episode has ended; call reset()")
        if action not in (0, 1):
            raise ValueError(f"invalid action index {action}")
        force = self.force_mag if action == 1 else -self.force_mag
        x, x_dot, theta, theta_dot = floats = self._state.tolist()
        x_acc, theta_acc = self.accelerations(floats, force)
        dt = self.dt
        x, theta = x + dt * x_dot, theta + dt * theta_dot
        state = self._state
        self._state = _frozen(np.array(
            [x, x_dot + dt * x_acc, theta, theta_dot + dt * theta_acc]
        ))
        self._steps += 1
        self._done = self._out_of_bounds(x, theta) or self._steps >= self.max_steps
        return Transition(state, action, 1.0, self._state, self._done)

    def get_state(self) -> dict:
        return {
            "state": self._state.tolist(),
            "steps": self._steps,
            "done": self._done,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, snapshot: dict) -> None:
        self._state = _frozen(np.array(snapshot["state"], dtype=np.float64))
        self._steps = snapshot["steps"]
        self._done = snapshot["done"]
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = snapshot["rng"]


# ---------------------------------------------------------------------------
# Delayed-reward wrapper


class DelayedReward:
    """Withholds environment reward, emitting the accumulated sum every d-th
    step and at episode end. Every other attribute is the inner env's."""

    def __init__(self, env, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.env = env
        self.d = d
        self._pending = 0.0
        self._phase = 0

    def __getattr__(self, name):
        # reached only for names the wrapper lacks; `env` itself is refused so
        # that copy and pickle, which probe before __init__ ran, cannot recurse
        if name == "env":
            raise AttributeError(name)
        return getattr(self.env, name)

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        self._pending = 0.0
        self._phase = 0
        return self.env.reset(seed)

    def step(self, action: int) -> Transition:
        t = self.env.step(action)
        self._pending += t.env_reward
        self._phase += 1
        if self._phase % self.d == 0 or t.done:
            emitted, self._pending = self._pending, 0.0
        else:
            emitted = 0.0
        if t.done:
            self._phase = 0
        t.env_reward = emitted  # the inner env made t for this call alone
        return t

    def get_state(self) -> dict:
        return {"pending": self._pending, "phase": self._phase, "inner": self.env.get_state()}

    def set_state(self, snapshot: dict) -> None:
        self._pending = snapshot["pending"]
        self._phase = snapshot["phase"]
        self.env.set_state(snapshot["inner"])


def make_env(env_id: str, seed: int = 0, layout: Optional[GridLayout] = None, d: int = 1):
    """Environment factory used by the run harness."""
    if env_id == "gridworld":
        env = GridWorld(layout, seed=seed)
    elif env_id == "cartpole":
        env = CartPole(seed=seed)
    else:
        raise ValueError(f"unknown env id {env_id!r} (expected gridworld or cartpole)")
    if d > 1:
        return DelayedReward(env, d)
    return env
