"""Independent oracles shared by the test modules.

These implement the 'other side' of dual-route checks: central finite
differences for gradients, a truth-table evaluator plus random formula
generator for the constraint language, a scalar Minkowski distance, a scalar
GAE recursion, a direct discounted-sum advantage, dense one-hot inputs, the
out-of-place forward pass and the inference formulas built on it, ParamSets
with chosen entries, a per-entry backward pass at one BLAS thread (and
`blas_threads`, which sets numpy's bundled OpenBLAS count), per-entry Adam
updates, reference environment steppers, a cell-by-cell grid transition table, and the
step-by-step training rollout and evaluation loops. They
intentionally avoid the library code paths they are used to check
(numpy.linalg.norm instead of the DSL's norm code, operator dispatch instead
of the DSL's comparison table). `gae_column`, a one-stream view of
gae_batch, is a shared helper rather than an oracle.
"""
from __future__ import annotations

import contextlib
import math
import operator

import numpy as np
import pytest

from logicrl import constraints as fl
from logicrl.actor_critic import gae_batch
from logicrl import envs
from logicrl.envs import StateSchema
from logicrl.tensor import MLPCache, ParamSet, _as_batch, bundled_openblas_threads
from logicrl.training import EvalResult

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
# Scalar twins of the batched norm and GAE


def norm_distance(point_a, point_b, p: float = 2.0) -> float:
    """Minkowski distance between two equal-length points; p >= 1 or inf."""
    a = np.asarray(point_a, dtype=np.float64)
    b = np.asarray(point_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (p == math.inf or p >= 1.0):
        raise ValueError(f"norm order must be >= 1 or inf, got {p}")
    diff = np.abs(a - b)
    if p == math.inf:
        return float(diff.max(initial=0.0))
    if p == 1.0:
        return float(diff.sum())
    if p == 2.0:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.sum(diff**p) ** (1.0 / p))


def gae_advantages(
    rewards,
    values,
    dones,
    gamma: float,
    lam: float,
    bootstrap_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """GAE over one time-ordered sequence, one step at a time.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t)
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    returns = A + V

    `bootstrap_value` stands in for V(s_T) when the last step is not
    terminal; it is ignored (masked by done) otherwise.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    d = np.asarray(dones, dtype=np.float64)
    if not (len(r) == len(v) == len(d)) or len(r) == 0:
        raise ValueError("rewards, values and dones must share a positive length")
    T = len(r)
    next_values = np.append(v[1:], bootstrap_value)
    deltas = r + gamma * next_values * (1.0 - d) - v
    advantages = np.zeros(T)
    acc = 0.0
    for t in range(T - 1, -1, -1):
        acc = deltas[t] + gamma * lam * (1.0 - d[t]) * acc
        advantages[t] = acc
    return advantages, advantages + v


def gae_column(rewards, values, dones, gamma, lam, bootstrap_value=0.0):
    """gae_batch on one stream: (T, 1) columns in, (T,) advantages and returns out."""
    def column(x):
        return np.asarray(x, dtype=np.float64).reshape(-1, 1)

    adv, ret = gae_batch(column(rewards), column(values), column(dones), gamma, lam,
                         np.array([bootstrap_value], dtype=np.float64))
    return adv[:, 0], ret[:, 0]


def direct_sum_oracle(rewards, values, dones, gamma, bootstrap_value):
    """Monte-Carlo advantages at lam=1: discounted reward sum to episode end
    (or buffer end with bootstrap), minus the state value."""
    T = len(rewards)
    adv = np.zeros(T)
    for t in range(T):
        total = 0.0
        discount = 1.0
        k = t
        while k < T:
            total += discount * rewards[k]
            if dones[k]:
                break
            discount *= gamma
            k += 1
        else:
            total += discount * bootstrap_value
        adv[t] = total - values[t]
    return adv


# ---------------------------------------------------------------------------
# Dense one-hot inputs, the reference for the index input


def dense_onehot(indices, width: int) -> np.ndarray:
    """(n, width) float rows with a 1 at each row's index."""
    indices = np.asarray(indices).ravel()
    out = np.zeros((len(indices), width))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def dense_grid_onehot_features(width: int, height: int):
    """The grid featurizer as dense one-hot rows: (feature_dim, featurize)."""

    def featurize(states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(states)
        idx = states[:, 1].astype(np.int64) * width + states[:, 0].astype(np.int64)
        return dense_onehot(idx, width * height)

    return width * height, featurize


# ---------------------------------------------------------------------------
# The out-of-place forward pass and the inference formulas that call it: the
# reference for the in-place forward, the count_nonzero checks and the
# one-buffer model input, which must give the same bits


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a vector or a matrix of rows."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax of empty input")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_mlp_forward(params: ParamSet, config, x: np.ndarray):
    """Run the net on a batch of row vectors.

    An integer input is a column of one-hot indices: row i stands for the
    unit vector with a 1 at x[i, 0], and layer 0 is the row gather
    `W0[x[:, 0]] + b0`, bitwise equal to the dense product.

    Returns the (n, d_out) output, which is the last layer's
    pre-activation, and the activation cache needed for mlp_backward. Every
    layer allocates fresh arrays: the out-of-place formulas the in-place
    forward pass must match bit for bit.
    """
    weights = params.views
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        if x.ndim != 2 or x.shape[1] != 1:
            raise ValueError(
                "mlp_forward input: an integer input holds one one-hot index per row, "
                f"as an (n, 1) column; got shape {x.shape}"
            )
        pre = weights[0][x[:, 0]] + weights[1]
    else:
        x = _as_batch(x, config.layer_sizes[0], "mlp_forward input")
        pre = x @ weights[0] + weights[1]
    post_list: list[np.ndarray] = []
    for layer in range(1, config.n_layers):
        post = np.tanh(pre)
        post_list.append(post)
        pre = post @ weights[2 * layer] + weights[2 * layer + 1]
    post_list.append(pre)
    return pre, MLPCache(x, post_list)


def reference_grid_cells(states: np.ndarray, width: int) -> np.ndarray:
    """The (n, 1) int64 cell index column y * width + x of on-grid states."""
    xy = np.atleast_2d(states).astype(np.int64)
    return xy[:, 1:2] * width + xy[:, 0:1]


def reference_probs(agent, states, grid_width=None) -> np.ndarray:
    """The policy's action probabilities, the softmax of its logits; a grid
    policy (`grid_width` set) reads cell indices, any other the raw
    states."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    if grid_width is not None:
        x = reference_grid_cells(x, grid_width)
    logits, _ = reference_mlp_forward(agent.policy_params, agent.policy_config, x)
    assert np.isfinite(logits).all()
    return reference_softmax(logits)


def reference_act_batch(agent, states, rng: np.random.Generator, grid_width=None):
    """Sampled actions: the first action whose cumulative probability
    reaches a uniform draw."""
    probs = reference_probs(agent, states, grid_width)
    cum = np.cumsum(probs, axis=1)
    u = rng.random((len(probs), 1))
    return np.minimum((cum < u).sum(axis=1), agent.n_actions - 1)


def reference_greedy_batch(agent, states, grid_width=None) -> np.ndarray:
    return np.argmax(reference_probs(agent, states, grid_width), axis=1)


def reference_predict_batch(model, states, actions) -> np.ndarray:
    """The model's next-state prediction from a concatenated input,
    normalized and denormalized out of place."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.asarray(actions, dtype=np.int64).ravel()
    norm = model.normalizer
    x = np.concatenate([(states - norm.mean) / norm.std, np.eye(model.n_actions)[actions]], axis=1)
    z, _ = reference_mlp_forward(model.params, model.config, x)
    return z * norm.std + norm.mean


# ---------------------------------------------------------------------------
# ParamSets with chosen entries, and the per-entry backward pass and
# optimizer updates, the references for the one-vector gradient and Optimizer


def paramset_with(like: ParamSet, entries: dict | None = None, fill: float | None = None) -> ParamSet:
    """A ParamSet in `like`'s layout holding `like`'s values (or `fill`
    everywhere), with each entry named in `entries` set to its value. The
    values are written through the vector after the ParamSet is built, so a
    test can plant a NaN or inf that the constructor refuses."""
    vec = like.flat().copy() if fill is None else np.full(like.n_params(), float(fill))
    out = like.with_flat(vec)
    start = 0
    for name, shape in like.layout:
        stop = start + math.prod(shape)
        if entries and name in entries:
            vec[start:stop] = np.broadcast_to(entries[name], shape).ravel()
        start = stop
    return out


# skips a test that sets the thread count when there is no count to set
needs_bundled_openblas = pytest.mark.skipif(bundled_openblas_threads() is None,
                                            reason="numpy does not use its bundled OpenBLAS")


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the body with numpy's bundled OpenBLAS at `count` threads, set
    through its ctypes handle, and restore the count after; do nothing when
    numpy has no such library."""
    threads = bundled_openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


def per_entry_backward(params: ParamSet, config, cache, output_grad, trunk_grad=None) -> list:
    """mlp_backward's gradients for a float input batch, one freshly
    allocated array per entry (each layer's weight, then its bias): the
    reference for the views into one gradient vector, computed out of
    place, on one BLAS thread as mlp_backward computes them. `trunk_grad`
    is added at the last hidden layer's output."""
    grads = [None] * (2 * config.n_layers)
    last = config.n_layers - 1
    d_post = output_grad
    with blas_threads(1):
        for layer in reversed(range(config.n_layers)):
            post = cache.post[layer]
            if layer == last - 1 and trunk_grad is not None:
                d_post = d_post + trunk_grad
            d_pre = d_post if layer == last else d_post * (1.0 - post * post)
            h_in = cache.inputs if layer == 0 else cache.post[layer - 1]
            grads[2 * layer], grads[2 * layer + 1] = h_in.T @ d_pre, d_pre.sum(axis=0)
            d_post = d_pre @ params.views[2 * layer].T
    return grads


def adam_step(params: ParamSet, grads: ParamSet, state: dict, learning_rate: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam step, entry by entry. `state` holds `t` and per-entry moment
    dicts `m` and `v` (empty before the first step); returns the updated
    parameters and a new state."""
    t = state["t"] + 1
    new_m, new_v, out = {}, {}, []
    for name, p in params:
        g = grads[name]
        m = beta1 * state["m"].get(name, np.zeros_like(p)) + (1 - beta1) * g
        v = beta2 * state["v"].get(name, np.zeros_like(p)) + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        out.append((name, p - learning_rate * m_hat / (np.sqrt(v_hat) + eps)))
        new_m[name], new_v[name] = m, v
    return ParamSet(out), {"t": t, "m": new_m, "v": new_v}


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
# Random quantified formulas over 3-D states

# 3-D states whose `pos` slice picks components 2 and 0, in that order, and
# whose `alt` slice picks 1 and 2, so `s.pos - s.alt` is a state-versus-state norm
QUANTIFIED_SCHEMA = StateSchema(("a", "b", "c"), {"pos": (2, 0), "alt": (1, 2)})
QUANTIFIED_SETS = ("few", "one", "many", "empty")


def quantified_registry(rng: np.random.Generator) -> fl.ObjectRegistry:
    """2-D anchor sets (points of the `pos` slice) for
    random_quantified_formula; "empty" has no points at all."""
    reg = fl.ObjectRegistry()
    for name, m in (("few", 3), ("one", 1), ("many", 7)):
        reg.add_set(name, np.round(rng.uniform(0, 10, size=(m, 2)), 2))
    reg.add_set("empty", np.zeros((0, 0)))
    return reg


def _num(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 2)


def _point(rng, k) -> fl.PointLiteral:
    return fl.PointLiteral(tuple(_num(rng, -2, 12) for _ in range(k)))


def random_quantified_atom(rng: np.random.Generator, scope: tuple) -> fl.Atom:
    """One atom over QUANTIFIED_SCHEMA, possibly naming the variables in
    `scope`: `s[i]` bounds, norms of `s`/`s.pos` against point literals or
    anchors (in either order), norms between anchors or anchors and points
    (no state at all), state-versus-state norms and literal-only atoms."""
    p = [1.0, 2.0, math.inf][rng.integers(3)]
    op = list(OPS)[rng.integers(4)]
    kinds = ["bound", "pos_point", "state_point", "pos_alt", "literals"]
    if scope:
        kinds += ["pos_var", "pos_var", "pos_var", "var_point", "var_var", "two_norms"]

    def var():
        return fl.VarRef(scope[rng.integers(len(scope))])

    kind = kinds[rng.integers(len(kinds))]
    rhs = fl.Literal(_num(rng, 0, 9))
    if kind == "bound":
        lhs, rhs = fl.Component(int(rng.integers(3))), fl.Literal(_num(rng, -2, 12))
    elif kind == "pos_point":
        lhs = fl.NormDistance(p, fl.StateRef("pos"), _point(rng, 2))
    elif kind == "state_point":
        lhs = fl.NormDistance(p, fl.StateRef(None), _point(rng, 3))
    elif kind == "pos_alt":
        sides = (fl.StateRef("pos"), fl.StateRef("alt"))
        lhs = fl.NormDistance(p, *(sides if rng.random() < 0.5 else sides[::-1]))
    elif kind == "literals":
        lhs = fl.Literal(_num(rng, 0, 9))
    elif kind == "pos_var":
        sides = (fl.StateRef("pos"), var())
        lhs = fl.NormDistance(p, *(sides if rng.random() < 0.5 else sides[::-1]))
    elif kind == "var_point":
        lhs = fl.NormDistance(p, var(), _point(rng, 2))
    elif kind == "var_var":
        lhs = fl.NormDistance(p, var(), var())
    else:
        lhs = fl.NormDistance(p, fl.StateRef("pos"), var())
        rhs = fl.NormDistance(2.0, fl.StateRef("pos"), _point(rng, 2))
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    return fl.Atom(fl.Comparison(lhs, op, rhs))


def random_quantified_formula(rng: np.random.Generator, budget: int = 3, scope: tuple = ()):
    """Random formula over QUANTIFIED_SCHEMA and quantified_registry with
    `forall`/`exists` (exists as not-forall-not, as parsed) over every set,
    the empty one too, nested up to `budget` levels together with
    `and`/`or`/`not`. Variables are named u or v, so an inner quantifier
    sometimes shadows an outer one. A quantifier body is often the bare
    `norm(s.pos - u) <op> c` atom, with the literal on either side, else
    any formula."""
    r = rng.random()
    if budget > 0 and r < 0.35:
        var = "uv"[rng.integers(2)]
        set_name = QUANTIFIED_SETS[rng.integers(len(QUANTIFIED_SETS))]
        inner = scope + (var,)
        if rng.random() < 0.4:
            sides = (fl.StateRef("pos"), fl.VarRef(var))
            p = [1.0, 2.0, math.inf][rng.integers(3)]
            op = list(OPS)[rng.integers(4)]
            term, literal = fl.NormDistance(p, *sides), fl.Literal(_num(rng, 0, 9))
            if rng.random() < 0.5:
                term, literal = literal, term
            body = fl.Atom(fl.Comparison(term, op, literal))
        else:
            body = random_quantified_formula(rng, budget - 1, inner)
        if rng.random() < 0.4:
            return fl.Not(fl.ForAll(var, set_name, fl.Not(body)))
        return fl.ForAll(var, set_name, body)
    if budget > 0 and r < 0.7:
        kids = tuple(random_quantified_formula(rng, budget - 1, scope)
                     for _ in range(2 + int(rng.integers(3))))
        f = fl.And(kids) if rng.random() < 0.5 else fl.Or(kids)
        return fl.Not(f) if rng.random() < 0.2 else f
    atom = random_quantified_atom(rng, scope)
    return fl.Not(atom) if rng.random() < 0.2 else atom


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


def reference_build_table(layout) -> dict:
    """A grid layout's sampling table built cell by cell: one exact
    `_distribution` per (non-terminal cell, action), its float cumulative
    sums (last pinned to 1.0) and each next cell's `_outcome`, with no
    sharing between cells of the same edge shape."""
    table = {}
    for x in range(layout.width):
        for y in range(layout.height):
            if layout.label((x, y)) in ("unsafe", "target"):
                continue
            entries = []
            for label in envs.GRID_ACTIONS:
                dist = envs._distribution(layout, (x, y), label)
                cum = np.cumsum([float(p) for _, p in dist])
                cum[-1] = 1.0
                outcomes = tuple(envs._outcome(layout, c) for c, _ in dist)
                entries.append((tuple(cum.tolist()), outcomes))
            table[(x, y)] = tuple(entries)
    return table


def random_grid_layout(rng: np.random.Generator):
    """A random valid GridLayout of 1-7 cells a side: random unsafe and
    target cells and a start, redrawn until the layout validates."""
    while True:
        width, height = (int(v) for v in rng.integers(1, 8, size=2))
        cells = [(x, y) for x in range(width) for y in range(height)]
        if len(cells) < 2:
            continue
        order = rng.permutation(len(cells))
        start, *rest = (cells[i] for i in order)
        n_targets = int(rng.integers(1, min(3, len(rest)) + 1))
        n_unsafe = int(rng.integers(0, len(rest) - n_targets + 1))
        try:
            return envs.GridLayout(width, height, rest[n_targets:n_targets + n_unsafe],
                                   rest[:n_targets], start)
        except ValueError:
            continue


def transition_mean(env, state, action: int) -> np.ndarray:
    """Exact conditional mean of a grid world's next state, from its
    `transition_distribution`."""
    pairs = env.transition_distribution(state, action)
    return np.sum([np.asarray(c) * float(p) for c, p in pairs], axis=0)


# ---------------------------------------------------------------------------
# Cart-pole reference stepper


class ReferenceCartPole:
    """The cart-pole Euler step on a numpy state array, in numpy-scalar
    arithmetic (`np.sin`, `np.cos`, `**2` of numpy scalars), with the
    physical constants and limits written out. Seeded like `CartPole`, its
    resets draw the same `uniform` stream. With `d` > 1 the reward is
    emitted as d-step sums (and at episode end), as `DelayedReward` does."""

    def __init__(self, seed: int, d: int = 1):
        self.rng = np.random.default_rng(seed)
        self.d = d
        self.reset()

    def reset(self) -> np.ndarray:
        self.state = self.rng.uniform(-0.05, 0.05, size=4)
        self.steps = 0
        self.pending = 0.0
        self.phase = 0
        return self.state.copy()

    @staticmethod
    def accelerations(state: np.ndarray, force: float):
        gravity, m_cart, m_pole, half = 9.8, 1.0, 0.1, 0.5
        _, _, theta, theta_dot = state
        total = m_cart + m_pole
        pm_l = m_pole * half
        sin, cos = np.sin(theta), np.cos(theta)
        temp = (force + pm_l * theta_dot**2 * sin) / total
        theta_acc = (gravity * sin - cos * temp) / (half * (4.0 / 3.0 - m_pole * cos**2 / total))
        x_acc = temp - pm_l * theta_acc * cos / total
        return x_acc, theta_acc

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        dt = 0.02
        x, x_dot, theta, theta_dot = self.state
        x_acc, theta_acc = self.accelerations(self.state, 10.0 if action == 1 else -10.0)
        self.state = np.array([x + dt * x_dot, x_dot + dt * x_acc,
                               theta + dt * theta_dot, theta_dot + dt * theta_acc])
        self.steps += 1
        done = bool(abs(self.state[0]) > 2.4 or abs(self.state[2]) > 0.2095
                    or self.steps >= 500)
        self.pending += 1.0
        self.phase += 1
        reward = 0.0
        if self.phase % self.d == 0 or done:
            reward, self.pending = self.pending, 0.0
        if done:
            self.phase = 0
        return self.state.copy(), reward, done


# ---------------------------------------------------------------------------
# Greedy evaluation, scored step by step


def reference_evaluate_policy(agent, env, bound, eval_steps: int, seed=None,
                              model=None) -> EvalResult:
    """The per-step evaluation loop: each step's true next state, and the
    model's prediction for that step, is scored by its own single-state
    `bound.evaluate` call as the step happens."""
    state = env.reset(seed)
    satisfied = 0
    disagreements = 0
    ep_return = 0.0
    episode_returns: list[float] = []
    end_counts: dict[str, int] = {}
    for _ in range(eval_steps):
        action = int(agent.greedy_batch(state[None, :])[0])
        next_state, reward, done = env.step(action)
        if bound is not None:
            true_ok = bound.evaluate(next_state)
            satisfied += bool(true_ok)
            if model is not None:
                pred_ok = bound.evaluate(model.predict(state, action))
                disagreements += pred_ok != true_ok
        ep_return += reward
        if done:
            episode_returns.append(ep_return)
            label = env.end_label(next_state)
            end_counts[label] = end_counts.get(label, 0) + 1
            ep_return = 0.0
            state = env.reset()
        else:
            state = next_state
    mean_return = float(np.mean(episode_returns)) if episode_returns else ep_return
    return EvalResult(
        mean_return=mean_return,
        satisfaction_rate=satisfied / eval_steps if bound is not None else 1.0,
        violation_count=eval_steps - satisfied if bound is not None else 0,
        steps=eval_steps,
        episodes=len(episode_returns),
        episode_returns=episode_returns,
        end_counts=end_counts,
        disagreement_rate=disagreements / eval_steps if model is not None else 0.0,
    )


# ---------------------------------------------------------------------------
# Training rollout, scored step by step


def reference_collect_rollout(trainer) -> dict:
    """The per-step training rollout: at each step the model predicts the
    next states of the B (state, action) rows, and the formula scores that
    prediction and the true next states, before the next step is taken.
    Steps `trainer`'s envs and keeps its running returns, as a rollout
    does; returns the (T, B) arrays, the training rewards, the completed
    returns and the three constraint rates."""
    cfg = trainer.config
    T, B = cfg.rollout_length, cfg.batch_size
    d_state = trainer.schema.size
    states = np.zeros((T, B, d_state))
    actions = np.zeros((T, B), dtype=np.int64)
    rewards = np.zeros((T, B))
    dones = np.zeros((T, B))
    values = np.zeros((T, B))
    next_states = np.zeros((T, B, d_state))
    rc_hits = true_hits = disagreements = 0
    completed: list[float] = []
    ep_returns = trainer._ep_returns.tolist()
    step_states = np.stack([env.state for env in trainer.envs])
    for t in range(T):
        acts, vals = trainer.agent.act_batch(step_states, trainer.action_rng)
        following = []
        for i, (env, action) in enumerate(zip(trainer.envs, acts.tolist())):
            next_state, reward, done = env.step(action)
            next_states[t, i] = next_state
            rewards[t, i] = reward
            ep_returns[i] += reward
            if done:
                dones[t, i] = 1.0
                completed.append(ep_returns[i])
                ep_returns[i] = 0.0
                following.append(env.reset())
            else:
                following.append(next_state)
        if trainer.bound is not None:
            pred_ok = trainer.bound.evaluate_batch(trainer.model.predict_batch(step_states, acts))
            true_ok = trainer.bound.evaluate_batch(next_states[t])
            r_c = np.where(pred_ok, cfg.constraint_reward_weight, 0.0)
            rc_hits += int(pred_ok.sum())
            true_hits += int(true_ok.sum())
            disagreements += int((pred_ok != true_ok).sum())
        else:
            # no formula: no constraint reward, and every true next state
            # satisfies the empty constraint
            r_c = np.zeros(B)
            true_hits += B
        states[t] = step_states
        actions[t] = acts
        values[t] = vals
        rewards[t] = rewards[t] + r_c if cfg.use_env_reward else r_c
        step_states = np.array(following)
    trainer._ep_returns = np.array(ep_returns)
    n = T * B
    return {
        "states": states, "actions": actions, "rewards": rewards, "dones": dones,
        "values": values, "next_states": next_states, "completed": completed,
        "rc_rate": rc_hits / n, "true_satisfaction_rate": true_hits / n,
        "disagreement_rate": disagreements / n,
    }
