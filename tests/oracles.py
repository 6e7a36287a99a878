"""Independent oracles shared by the test modules.

These implement the 'other side' of dual-route checks: central finite
differences for gradients, and a truth-table evaluator plus random formula
generator for the constraint language. They intentionally avoid the library
code paths they are used to check (numpy.linalg.norm instead of the DSL's
norm code, operator dispatch instead of the DSL's comparison table).
"""
from __future__ import annotations

import math
import operator

import numpy as np

from logicrl import constraints as fl

OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def fd_gradient(loss_fn, params, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of loss_fn over a flattened ParamSet."""
    flat = params.flat()
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        up = flat.copy()
        dn = flat.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (loss_fn(params.with_flat(up)) - loss_fn(params.with_flat(dn))) / (2 * eps)
    return grad


def grads_match(analytic: np.ndarray, numeric: np.ndarray,
                rel: float = 1e-4, floor: float = 1e-7) -> bool:
    """Entrywise |a - n| <= max(rel * max(|a|, |n|), floor)."""
    diff = np.abs(analytic - numeric)
    tol = np.maximum(rel * np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return bool(np.all(diff <= tol))


# ---------------------------------------------------------------------------
# Constraint-language oracle


def collect_atoms(formula) -> list:
    if isinstance(formula, fl.Atom):
        return [formula]
    if isinstance(formula, fl.Not):
        return collect_atoms(formula.child)
    if isinstance(formula, (fl.And, fl.Or)):
        out = []
        for c in formula.children:
            out.extend(collect_atoms(c))
        return out
    if isinstance(formula, fl.ForAll):
        return collect_atoms(formula.body)
    raise TypeError(formula)


def _oracle_scalar(expr, states: np.ndarray, binding: dict) -> np.ndarray:
    """Scalar expression values for every state row, via numpy.linalg.norm."""
    n = len(states)
    if isinstance(expr, fl.Literal):
        return np.full(n, expr.value)
    if isinstance(expr, fl.Component):
        return states[:, expr.index]
    if isinstance(expr, fl.NormDistance):
        def side(ref):
            if isinstance(ref, fl.StateRef):
                return states if ref.slice_name is None else states[:, binding["slices"][ref.slice_name]]
            if isinstance(ref, fl.VarRef):
                return np.broadcast_to(binding[ref.name], states.shape[:1] + binding[ref.name].shape)
            return np.broadcast_to(np.asarray(ref.values), (n, len(ref.values)))
        diff = side(expr.left) - side(expr.right)
        ordv = np.inf if expr.p == math.inf else expr.p
        return np.linalg.norm(diff, ord=ordv, axis=1)
    raise TypeError(expr)


def oracle_evaluate_batch(formula, states, registry=None, slices=None) -> np.ndarray:
    """Independent truth-table evaluation over an (n, d) state matrix.

    Computes every atom's truth column directly, then combines columns with
    numpy boolean algebra following the formula structure.
    """
    states = np.asarray(states, dtype=np.float64)
    binding = {"slices": slices or {}}

    def run(f, binding):
        if isinstance(f, fl.Atom):
            lhs = _oracle_scalar(f.cmp.lhs, states, binding)
            rhs = _oracle_scalar(f.cmp.rhs, states, binding)
            return OPS[f.cmp.op](lhs, rhs)
        if isinstance(f, fl.Not):
            return np.logical_not(run(f.child, binding))
        if isinstance(f, fl.And):
            return np.logical_and.reduce([run(c, binding) for c in f.children])
        if isinstance(f, fl.Or):
            return np.logical_or.reduce([run(c, binding) for c in f.children])
        if isinstance(f, fl.ForAll):
            points = registry.points(f.set_name)
            acc = np.ones(len(states), dtype=bool)
            for point in points:
                acc = np.logical_and(acc, run(f.body, {**binding, f.var: point}))
            return acc
        raise TypeError(f)

    return run(formula, binding)


# ---------------------------------------------------------------------------
# Random quantifier-free formulas over 2-D states


def random_atom(rng: np.random.Generator) -> fl.Atom:
    p = [1.0, 2.0, math.inf][rng.integers(3)]
    op = ["<=", "<", ">=", ">"][rng.integers(4)]
    kind = rng.integers(3)
    if kind == 0:
        point = fl.PointLiteral((round(float(rng.uniform(-2, 12)), 3),
                                 round(float(rng.uniform(-2, 12)), 3)))
        a = fl.NormDistance(p, fl.StateRef(None), point)
        b = fl.Literal(round(float(rng.uniform(0, 10)), 3))
    elif kind == 1:
        a = fl.Component(int(rng.integers(2)))
        b = fl.Literal(round(float(rng.uniform(-2, 12)), 3))
    else:
        pa = fl.PointLiteral((round(float(rng.uniform(-2, 12)), 3),
                              round(float(rng.uniform(-2, 12)), 3)))
        pb = fl.PointLiteral((round(float(rng.uniform(-2, 12)), 3),
                              round(float(rng.uniform(-2, 12)), 3)))
        a = fl.NormDistance(p, fl.StateRef(None), pa)
        b = fl.NormDistance(2.0, fl.StateRef(None), pb)
    if rng.random() < 0.5:
        a, b = b, a
    return fl.Atom(fl.Comparison(a, op, b))


def random_formula(rng: np.random.Generator, max_atoms: int = 6):
    """Random quantifier-free boolean combination of at most max_atoms atoms."""
    parts = [random_atom(rng) for _ in range(1 + int(rng.integers(max_atoms)))]
    while len(parts) > 1:
        take = min(len(parts), 2 + int(rng.integers(2)))
        group, parts = parts[:take], parts[take:]
        combined = fl.And(tuple(group)) if rng.random() < 0.5 else fl.Or(tuple(group))
        if rng.random() < 0.3:
            combined = fl.Not(combined)
        parts.append(combined)
    f = parts[0]
    if rng.random() < 0.2:
        f = fl.Not(f)
    return f


# ---------------------------------------------------------------------------
# Slippery-grid reference stepper


class ReferenceGridStepper:
    """Steps a grid world straight from its exact `transition_distribution`:
    the float cumulative sums of the Fractions (last pinned to 1.0), one
    `rng.random()` draw searched with `np.searchsorted(side="right")`, and
    the reward rule read from the layout's cell labels. Seeded like
    `GridWorld`, it draws the same stream, so the two must agree step for
    step without sharing the table."""

    def __init__(self, env, seed: int):
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.reset()

    def reset(self) -> None:
        self.pos = self.env.layout.start
        self.steps = 0

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        pairs = self.env.transition_distribution(np.array(self.pos, dtype=np.float64), action)
        cum = np.cumsum([float(p) for _, p in pairs])
        cum[-1] = 1.0
        nxt = pairs[int(np.searchsorted(cum, self.rng.random(), side="right"))][0]
        self.pos = (int(nxt[0]), int(nxt[1]))
        self.steps += 1
        label = self.env.layout.label(self.pos)
        reward = {"target": 1.0, "unsafe": -1.0}.get(label, 0.0)
        done = label in ("target", "unsafe") or self.steps >= self.env.max_steps
        return nxt, reward, done
