"""Seedable experiment environments behind one interface.

Two environments: a 20x20 slippery grid world whose target sits behind a
bridge through a band of unsafe cells, and the classic cart-pole balancing
task. Both expose reset/step, a state schema with named slices and a
discrete action spec; a wrapper defers environment reward into d-step sums.
"""
from __future__ import annotations

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
    """Names, units and named index slices of the flat state vector."""

    names: tuple[str, ...]
    units: tuple[str, ...]
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


class GridLayout:
    """Cell labels of the grid: safe/unsafe/target plus one initial cell.

    Map text is height lines of width characters, top row first:
    '.' safe, 'U' unsafe, 'T' target, 'S' initial. Coordinates are (x, y)
    with (0, 0) at the bottom-left.
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
        lines = []
        for y in range(self.height - 1, -1, -1):
            row = []
            for x in range(self.width):
                c = (x, y)
                if c in self.unsafe:
                    row.append("U")
                elif c in self.targets:
                    row.append("T")
                elif c == self.start:
                    row.append("S")
                else:
                    row.append(".")
            lines.append("".join(row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "GridLayout":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError("empty map")
        width = len(rows[0])
        height = len(rows)
        if any(len(r) != width for r in rows):
            raise ValueError("map rows have inconsistent widths")
        unsafe, targets, start = [], [], None
        for i, row in enumerate(rows):
            y = height - 1 - i
            for x, ch in enumerate(row):
                if ch == "U":
                    unsafe.append((x, y))
                elif ch == "T":
                    targets.append((x, y))
                elif ch == "S":
                    if start is not None:
                        raise ValueError("map has more than one initial cell")
                    start = (x, y)
                elif ch != ".":
                    raise ValueError(f"unknown map character {ch!r} at row {i}, column {x}")
        if start is None:
            raise ValueError("map has no initial cell 'S'")
        return GridLayout(width, height, unsafe, targets, start)

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


def _build_table(layout: GridLayout) -> dict:
    """Sampling table of a layout: for each non-terminal cell, one entry per
    action holding the float cumulative probabilities of its next cells
    (last pinned to 1.0) and each next cell's outcome."""
    table = {}
    for x in range(layout.width):
        for y in range(layout.height):
            if layout.label((x, y)) in ("unsafe", "target"):
                continue  # terminal cells are never stepped from
            entries = []
            for label in GRID_ACTIONS:
                dist = _distribution(layout, (x, y), label)
                cum = np.cumsum([float(p) for _, p in dist])
                cum[-1] = 1.0
                outcomes = tuple(_outcome(layout, c) for c, _ in dist)
                entries.append((tuple(cum.tolist()), outcomes))
            table[(x, y)] = tuple(entries)
    return table


# One table per distinct layout value, shared by every GridWorld of that
# layout: building one costs tens of milliseconds of Fraction arithmetic.
# Keyed by value, not identity, because checkpoints rebuild their layout
# from text. Entries are tuples and nothing writes to a table once built.
_TABLES: dict[tuple, dict] = {}


def _transition_table(layout: GridLayout) -> dict:
    key = (layout.width, layout.height, layout.unsafe, layout.targets, layout.start)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _build_table(layout)
    return table


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
        self.schema = StateSchema(
            names=("x", "y"), units=("cells", "cells"), slices={"pos": (0, 1)}
        )
        self.action_spec = ActionSpec(5, GRID_ACTIONS)
        self._table = _transition_table(self.layout)
        self.rng = np.random.default_rng(seed)
        self._pos = self.layout.start
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

    # -- episode interface ----------------------------------------------------

    @property
    def state(self) -> np.ndarray:
        return np.array(self._pos, dtype=np.float64)

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self._pos = self.layout.start
        self._steps = 0
        self._done = False
        return self.state

    def step(self, action: int) -> Transition:
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
        state = self.state
        self._pos = nxt
        self._steps += 1
        if self._steps >= self.max_steps:
            done = True
        self._done = done
        return Transition(state, action, reward, self.state, done)

    # -- snapshot -------------------------------------------------------------

    def get_state(self) -> dict:
        return {
            "pos": list(self._pos),
            "steps": self._steps,
            "done": self._done,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, snapshot: dict) -> None:
        self._pos = tuple(snapshot["pos"])
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

    gravity = 9.8
    mass_cart = 1.0
    mass_pole = 0.1
    half_length = 0.5
    force_mag = 10.0
    dt = 0.02

    def __init__(self, seed: int = 0):
        self.schema = StateSchema(
            names=("x", "x_dot", "theta", "theta_dot"),
            units=("m", "m/s", "rad", "rad/s"),
            slices={},
        )
        self.action_spec = ActionSpec(2, ("push_left", "push_right"))
        self.rng = np.random.default_rng(seed)
        self._state = np.zeros(4)
        self._steps = 0
        self._done = False
        self.reset(seed)

    @staticmethod
    def accelerations(state: np.ndarray, force: float) -> tuple[float, float]:
        """Cart and pole angular acceleration for the standard dynamics."""
        _, _, theta, theta_dot = state
        total = CartPole.mass_cart + CartPole.mass_pole
        pm_l = CartPole.mass_pole * CartPole.half_length
        sin, cos = np.sin(theta), np.cos(theta)
        temp = (force + pm_l * theta_dot**2 * sin) / total
        theta_acc = (CartPole.gravity * sin - cos * temp) / (
            CartPole.half_length * (4.0 / 3.0 - CartPole.mass_pole * cos**2 / total)
        )
        x_acc = temp - pm_l * theta_acc * cos / total
        return float(x_acc), float(theta_acc)

    @property
    def state(self) -> np.ndarray:
        return self._state.copy()

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self._state = self.rng.uniform(-0.05, 0.05, size=4)
        self._steps = 0
        self._done = False
        return self.state

    def step(self, action: int) -> Transition:
        if self._done:
            raise EpisodeOver("episode has ended; call reset()")
        if action not in (0, 1):
            raise ValueError(f"invalid action index {action}")
        force = self.force_mag if action == 1 else -self.force_mag
        x, x_dot, theta, theta_dot = self._state
        x_acc, theta_acc = self.accelerations(self._state, force)
        state = self.state
        self._state = np.array(
            [
                x + self.dt * x_dot,
                x_dot + self.dt * x_acc,
                theta + self.dt * theta_dot,
                theta_dot + self.dt * theta_acc,
            ]
        )
        self._steps += 1
        out_of_bounds = (
            abs(self._state[0]) > CART_X_LIMIT or abs(self._state[2]) > POLE_ANGLE_LIMIT
        )
        self._done = out_of_bounds or self._steps >= self.max_steps
        return Transition(state, action, 1.0, self.state, self._done)

    def get_state(self) -> dict:
        return {
            "state": self._state.tolist(),
            "steps": self._steps,
            "done": self._done,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, snapshot: dict) -> None:
        self._state = np.asarray(snapshot["state"], dtype=np.float64)
        self._steps = snapshot["steps"]
        self._done = snapshot["done"]
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = snapshot["rng"]


# ---------------------------------------------------------------------------
# Delayed-reward wrapper


class DelayedReward:
    """Withholds environment reward, emitting the accumulated sum every d-th
    step and at episode end. Everything else passes through."""

    def __init__(self, env, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.env = env
        self.d = d
        self._pending = 0.0
        self._phase = 0

    @property
    def schema(self) -> StateSchema:
        return self.env.schema

    @property
    def action_spec(self) -> ActionSpec:
        return self.env.action_spec

    @property
    def max_steps(self) -> int:
        return self.env.max_steps

    @property
    def state(self) -> np.ndarray:
        return self.env.state

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
        return Transition(t.state, t.action, emitted, t.next_state, t.done)

    def get_state(self) -> dict:
        return {"pending": self._pending, "phase": self._phase, "inner": self.env.get_state()}

    def set_state(self, snapshot: dict) -> None:
        self._pending = snapshot["pending"]
        self._phase = snapshot["phase"]
        self.env.set_state(snapshot["inner"])


def unwrap(env):
    """Peel reward wrappers off an environment."""
    while isinstance(env, DelayedReward):
        env = env.env
    return env


def default_registry(env) -> ObjectRegistry:
    """Anchor sets for an environment: unsafe and target cell centers on the
    grid (tagged with the 'pos' slice), nothing for cart-pole."""
    base = unwrap(env)
    registry = ObjectRegistry()
    if isinstance(base, GridWorld):
        unsafe = sorted(base.layout.unsafe)
        targets = sorted(base.layout.targets)
        registry.add_set("unsafe", np.array(unsafe, dtype=np.float64).reshape(len(unsafe), 2), "pos")
        registry.add_set("target", np.array(targets, dtype=np.float64).reshape(len(targets), 2), "pos")
    return registry


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
