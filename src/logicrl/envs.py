"""Seedable experiment environments behind one interface.

Two environments: a 20x20 slippery grid world whose target sits behind a
bridge through a band of unsafe cells, and the classic cart-pole balancing
task. Both expose reset and a step that returns (next_state, reward, done),
a state schema with named slices, a discrete action spec, and what the
trainer asks of an environment: its grid `layout`, anchor `registry()` and
episode `end_label`. A wrapper defers environment reward into d-step sums.
"""
from __future__ import annotations

import math
import struct
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


def restore_rng(state: dict) -> np.random.Generator:
    """A generator that continues a saved `bit_generator.state`. A constant
    seed means no OS entropy is drawn; a malformed state raises as the setter does."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _snapshot_episode(snapshot: dict, max_steps: int) -> tuple[int, bool]:
    """A snapshot's (steps, done), checked to be a count in 0..max_steps
    and a bool."""
    steps, done = snapshot["steps"], snapshot["done"]
    if not (type(steps) is int and 0 <= steps <= max_steps):
        raise ValueError(f"episode step count {steps!r} outside 0..{max_steps}")
    if type(done) is not bool:
        raise ValueError(f"episode done flag {done!r} is not a bool")
    return steps, done


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

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """One table lookup and one uniform draw. Returns (next_state, reward,
        done) with the new cell's shared read-only state array: no new array."""
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
        self._place(nxt)
        self._steps += 1
        if self._steps >= self.max_steps:
            done = True
        self._done = done
        return self._state, reward, done

    # -- snapshot -------------------------------------------------------------

    def get_state(self) -> dict:
        return {
            "pos": list(self._pos),
            "steps": self._steps,
            "done": self._done,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, snapshot: dict) -> None:
        """Continue from a `get_state` snapshot. One naming an off-grid cell,
        a target or unsafe cell of an episode still running, a step count
        outside 0..max_steps or a non-bool done raises ValueError and
        changes nothing."""
        cell = tuple(snapshot["pos"])
        if not (len(cell) == 2 and all(type(v) is int for v in cell)
                and self.layout.in_bounds(cell)):
            raise ValueError(
                f"cell {list(cell)} is not on the {self.layout.width}x{self.layout.height} grid"
            )
        steps, done = _snapshot_episode(snapshot, self.max_steps)
        if not done and cell not in self._table:  # the table holds the non-terminal cells
            raise ValueError(f"episode still running in {self.layout.label(cell)} cell {cell}")
        self.rng = restore_rng(snapshot["rng"])
        self._place(cell)
        self._steps = steps
        self._done = done


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
        self.reset()

    @staticmethod
    def accelerations(state, force: float) -> tuple[float, float]:
        """Cart and pole angular acceleration for the standard dynamics."""
        _, _, theta, theta_dot = state
        sin, cos = math.sin(theta), math.cos(theta)
        # `**2`, not `x * x`: the two round differently, and `**2` keeps the
        # trajectory bit-identical to numpy-scalar arithmetic
        temp = (force + _POLE_MOMENT * theta_dot**2 * sin) / _TOTAL_MASS
        theta_acc = (_GRAVITY * sin - cos * temp) / (
            _HALF_LENGTH * (4.0 / 3.0 - _MASS_POLE * cos**2 / _TOTAL_MASS)
        )
        x_acc = temp - _POLE_MOMENT * theta_acc * cos / _TOTAL_MASS
        return x_acc, theta_acc

    def registry(self) -> ObjectRegistry:
        """No anchor sets: cart-pole formulas bound state components."""
        return ObjectRegistry()

    def end_label(self, state) -> str:
        """Why an episode that ended in `state` ended: bound or cap."""
        return "bound" if _out_of_bounds(state[0], state[2]) else "cap"

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

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """One Euler step in Python floats. Returns (next_state, reward, done)
        with the env's new read-only state array: one new array per step."""
        if self._done:
            raise EpisodeOver("episode has ended; call reset()")
        if action == 1:
            force = _FORCE_MAG
        elif action == 0:
            force = -_FORCE_MAG
        else:
            raise ValueError(f"invalid action index {action}")
        x, x_dot, theta, theta_dot = floats = self._state.tolist()
        x_acc, theta_acc = self.accelerations(floats, force)
        x += _DT * x_dot
        theta += _DT * theta_dot
        # a float64 array over immutable bytes is born read-only
        self._state = state = np.frombuffer(
            _PACK_STATE(x, x_dot + _DT * x_acc, theta, theta_dot + _DT * theta_acc)
        )
        self._steps = steps = self._steps + 1
        self._done = done = _out_of_bounds(x, theta) or steps >= self.max_steps
        return state, 1.0, done

    def get_state(self) -> dict:
        return {
            "state": self._state.tolist(),
            "steps": self._steps,
            "done": self._done,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, snapshot: dict) -> None:
        """Continue from a `get_state` snapshot. One whose state is not 4
        finite numbers, is out of bounds in an episode still running, or
        whose step count is outside 0..max_steps or done is not a bool
        raises ValueError and changes nothing."""
        state = np.array(snapshot["state"], dtype=np.float64)
        if state.shape != (4,) or not np.isfinite(state).all():
            raise ValueError(f"cart-pole state {snapshot['state']!r} is not 4 finite numbers")
        steps, done = _snapshot_episode(snapshot, self.max_steps)
        if not done and _out_of_bounds(state[0], state[2]):
            raise ValueError(f"episode still running in out-of-bounds state {state.tolist()}")
        self.rng = restore_rng(snapshot["rng"])
        self._state = _frozen(state)
        self._steps = steps
        self._done = done


# What a cart-pole step reads of the physics, as module globals computed once
# from the class attributes: a global read is cheaper than a class-attribute
# lookup, and the two sums are the doubles `accelerations` computed per call.
_GRAVITY = CartPole.gravity
_MASS_POLE = CartPole.mass_pole
_HALF_LENGTH = CartPole.half_length
_TOTAL_MASS = CartPole.mass_cart + CartPole.mass_pole
_POLE_MOMENT = CartPole.mass_pole * CartPole.half_length
_FORCE_MAG = CartPole.force_mag
_DT = CartPole.dt
_PACK_STATE = struct.Struct("4d").pack


def _out_of_bounds(x, theta) -> bool:
    return abs(x) > CART_X_LIMIT or abs(theta) > POLE_ANGLE_LIMIT


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

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        next_state, reward, done = self.env.step(action)
        pending = self._pending + reward
        phase = self._phase + 1
        if done or phase % self.d == 0:
            emitted, pending = pending, 0.0
        else:
            emitted = 0.0
        self._pending = pending
        self._phase = 0 if done else phase
        return next_state, emitted, done

    def get_state(self) -> dict:
        return {"pending": self._pending, "phase": self._phase, "inner": self.env.get_state()}

    def set_state(self, snapshot: dict) -> None:
        """Continue from a `get_state` snapshot. The phase counts the steps
        of the running episode, so one outside 0..max_steps, a non-finite
        pending sum or an inner snapshot its env refuses raises ValueError
        and changes nothing."""
        pending, phase = snapshot["pending"], snapshot["phase"]
        if not (type(phase) is int and 0 <= phase <= self.env.max_steps):
            raise ValueError(f"delayed-reward phase {phase!r} outside 0..{self.env.max_steps}")
        if not (isinstance(pending, (int, float)) and math.isfinite(pending)):
            raise ValueError(f"delayed-reward pending sum {pending!r} is not a finite number")
        self.env.set_state(snapshot["inner"])
        self._pending = pending
        self._phase = phase


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
