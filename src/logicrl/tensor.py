"""Dense MLP forward/backward passes, optimizers, and the binary parameter file.

Everything is float64. Parameters live in named, ordered ParamSets so that
gradients, optimizer moments and checkpoints all share one representation.
"""
from __future__ import annotations

import functools
import json
import zipfile
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("identity", "softmax")
OPTIMIZERS = ("sgd", "adam")


class UpdateRejected(ValueError):
    """Raised when an optimizer step would write non-finite values."""


@dataclass(frozen=True)
class MLPConfig:
    """Shape of a fully-connected net: sizes of input, hidden and output layers.

    The hidden activation applies to every layer except the last; the output
    activation is identity or softmax (softmax only for categorical heads).
    """

    layer_sizes: tuple[int, ...]
    activation: str = "tanh"
    output_activation: str = "identity"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive: {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "layer_sizes": list(self.layer_sizes),
                "activation": self.activation,
                "output_activation": self.output_activation,
            }
        )

    @staticmethod
    def from_json(text: str) -> "MLPConfig":
        d = json.loads(text)
        return MLPConfig(
            tuple(d["layer_sizes"]), d["activation"], d["output_activation"]
        )


class ParamSet:
    """Ordered mapping of name -> float64 array; arrays must stay finite."""

    def __init__(self, entries: Iterable[tuple[str, np.ndarray]]):
        self.entries: dict[str, np.ndarray] = {}
        for name, arr in entries:
            if name in self.entries:
                raise ValueError(f"duplicate entry name {name!r}")
            arr = np.asarray(arr, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in entry {name!r}")
            self.entries[name] = arr

    def __iter__(self):
        return iter(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.entries[name]

    def names(self) -> list[str]:
        return list(self.entries)

    def copy(self) -> "ParamSet":
        return ParamSet((n, a.copy()) for n, a in self)

    def zeros_like(self) -> "ParamSet":
        return ParamSet((n, np.zeros_like(a)) for n, a in self)

    def n_params(self) -> int:
        return sum(a.size for a in self.entries.values())

    def scaled(self, factor: float) -> "ParamSet":
        return ParamSet((n, a * factor) for n, a in self)

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.entries.values()])

    def with_flat(self, vec: np.ndarray) -> "ParamSet":
        """Rebuild a ParamSet from a flat vector laid out in entry order."""
        out, i = [], 0
        for name, a in self:
            out.append((name, np.asarray(vec[i : i + a.size]).reshape(a.shape)))
            i += a.size
        if i != len(vec):
            raise ValueError("flat vector length mismatch")
        return ParamSet(out)

    def same_shapes(self, other: "ParamSet") -> bool:
        return self.names() == other.names() and all(
            self[n].shape == other[n].shape for n in self.entries
        )


def weight_name(layer: int) -> str:
    return f"w{layer}"


def bias_name(layer: int) -> str:
    return f"b{layer}"


@functools.lru_cache(maxsize=None)
def _layer_names(prefix: str, n_layers: int) -> tuple[tuple[str, str], ...]:
    """(weight, bias) entry names per layer, formatted once per net shape."""
    return tuple(
        (prefix + weight_name(layer), prefix + bias_name(layer)) for layer in range(n_layers)
    )


def mlp_init(config: MLPConfig, seed: int, prefix: str = "") -> ParamSet:
    """Glorot-uniform weights, zero biases; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    entries = []
    sizes = config.layer_sizes
    for layer in range(config.n_layers):
        fan_in, fan_out = sizes[layer], sizes[layer + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        entries.append((prefix + weight_name(layer), w))
        entries.append((prefix + bias_name(layer), np.zeros(fan_out)))
    return ParamSet(entries)


@dataclass
class MLPCache:
    """Per-layer records from a forward pass, consumed by mlp_backward."""

    inputs: np.ndarray            # (n, d_in) floats, or (n, 1) one-hot indices
    pre: list[np.ndarray]         # pre-activation per layer, (n, d_l)
    post: list[np.ndarray]        # post-activation per layer, (n, d_l)
    single: bool                  # input was 1-D
    prefix: str = ""


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"{what}: expected length {dim}, got {x.shape[0]}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != dim:
            raise ValueError(f"{what}: expected width {dim}, got {x.shape[1]}")
        return x, False
    raise ValueError(f"{what}: expected 1-D or 2-D input")


def _as_index_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """An integer input: one one-hot index per row, as a length-1 vector or
    an (n, 1) column. An index past the input width raises on use."""
    if x.ndim == 1 and x.shape[0] == 1:
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == 1:
        return x, False
    raise ValueError(
        "mlp_forward input: an integer input holds one one-hot index per row, "
        f"as a length-1 vector or an (n, 1) column; got shape {x.shape}"
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a vector or a matrix of rows."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax of empty input")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(pre)
    return np.maximum(pre, 0.0)


def _activation_grad(pre: np.ndarray, post: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - post * post
    return (pre > 0.0).astype(np.float64)


def mlp_forward(
    params: ParamSet, config: MLPConfig, x: np.ndarray, prefix: str = ""
) -> tuple[np.ndarray, MLPCache]:
    """Run the net on one input vector or a batch of row vectors.

    An integer input is a column of one-hot indices: row i stands for the
    unit vector with a 1 at x[i, 0], and layer 0 is the row gather
    `W0[x[:, 0]] + b0`, bitwise equal to the dense product.

    Returns the output (same leading shape as the input) and the activation
    cache needed for mlp_backward.
    """
    names = _layer_names(prefix, config.n_layers)
    w_name, b_name = names[0]
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        batch, single = _as_index_batch(x)
        pre = params[w_name][batch[:, 0]] + params[b_name]
    else:
        batch, single = _as_batch(x, config.layer_sizes[0], "mlp_forward input")
        pre = batch @ params[w_name] + params[b_name]
    pre_list: list[np.ndarray] = [pre]
    post_list: list[np.ndarray] = []
    for w_name, b_name in names[1:]:
        post = _activate(pre, config.activation)
        post_list.append(post)
        pre = post @ params[w_name] + params[b_name]
        pre_list.append(pre)
    h = softmax(pre) if config.output_activation == "softmax" else pre
    post_list.append(h)
    cache = MLPCache(batch, pre_list, post_list, single, prefix)
    return (h[0] if single else h), cache


def mlp_backward(
    params: ParamSet,
    config: MLPConfig,
    cache: MLPCache,
    output_grad: np.ndarray,
    hidden_grads: Optional[dict[int, np.ndarray]] = None,
) -> tuple[ParamSet, Optional[np.ndarray]]:
    """Backpropagate a gradient w.r.t. the net output through the cache.

    `hidden_grads` maps a layer index to an extra gradient added at that
    layer's post-activation; this is how a side head (e.g. a value head fed
    from the last hidden layer) routes its gradient into a shared trunk.
    Gradients are summed over the batch. Also returns the gradient w.r.t.
    the input batch, or None for a one-hot index input. The layer-0 weight
    gradient of an index input is the dense `onehot.T @ d_pre`: a scatter-add
    sums in another order and is not bitwise equal.
    """
    if len(cache.pre) != config.n_layers:
        raise ValueError("cache does not match config")
    g, single = _as_batch(
        output_grad, config.layer_sizes[-1], "mlp_backward output_grad"
    )
    if single != cache.single or g.shape[0] != cache.inputs.shape[0]:
        raise ValueError("output_grad does not match cached batch")
    inputs = cache.inputs
    index_input = inputs.dtype.kind in "iu"
    if index_input:
        idx = inputs[:, 0]
        inputs = np.zeros((len(idx), config.layer_sizes[0]))
        inputs[np.arange(len(idx)), idx] = 1.0
    prefix = cache.prefix
    grads: dict[str, np.ndarray] = {}
    last = config.n_layers - 1
    names = _layer_names(prefix, config.n_layers)
    d_post = g
    for layer in range(last, -1, -1):
        w_name, b_name = names[layer]
        pre, post = cache.pre[layer], cache.post[layer]
        if hidden_grads and layer in hidden_grads and layer != last:
            d_post = d_post + hidden_grads[layer]
        if layer == last:
            if config.output_activation == "softmax":
                # exact softmax Jacobian-transpose product, row-wise
                dot = np.sum(d_post * post, axis=1, keepdims=True)
                d_pre = post * (d_post - dot)
            else:
                d_pre = d_post
        else:
            d_pre = d_post * _activation_grad(pre, post, config.activation)
        h_in = inputs if layer == 0 else cache.post[layer - 1]
        grads[w_name] = h_in.T @ d_pre
        grads[b_name] = d_pre.sum(axis=0)
        if layer or not index_input:
            d_post = d_pre @ params[w_name].T
    ordered = [(name, grads[name]) for name in params.names()]
    if index_input:
        return ParamSet(ordered), None
    return ParamSet(ordered), (d_post[0] if cache.single else d_post)


def _check_update(params: ParamSet, grads: ParamSet) -> None:
    if not params.same_shapes(grads):
        raise ValueError("gradient names/shapes do not match parameters")
    for name, g in grads:
        if not np.all(np.isfinite(g)):
            raise UpdateRejected(f"non-finite gradient in {name!r}; step skipped")


def sgd_step(params: ParamSet, grads: ParamSet, learning_rate: float) -> ParamSet:
    """One plain gradient-descent step; rejects non-finite gradients."""
    _check_update(params, grads)
    return ParamSet((n, a - learning_rate * grads[n]) for n, a in params)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: ParamSet,
    grads: ParamSet,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParamSet, AdamState]:
    """One Adam step; moment buffers live in `state` (updated copy returned)."""
    _check_update(params, grads)
    t = state.t + 1
    new_m, new_v, out = {}, {}, []
    for name, p in params:
        g = grads[name]
        m = beta1 * state.m.get(name, np.zeros_like(p)) + (1 - beta1) * g
        v = beta2 * state.v.get(name, np.zeros_like(p)) + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        out.append((name, p - learning_rate * m_hat / (np.sqrt(v_hat) + eps)))
        new_m[name], new_v[name] = m, v
    return ParamSet(out), AdamState(new_m, new_v, t)


class Optimizer:
    """Stateful SGD or Adam wrapper over one ParamSet's update stream."""

    def __init__(self, kind: str = "adam", learning_rate: float = 1e-3):
        if kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.adam = AdamState()

    def step(self, params: ParamSet, grads: ParamSet) -> ParamSet:
        if self.kind == "sgd":
            return sgd_step(params, grads, self.learning_rate)
        new_params, self.adam = adam_step(params, grads, self.adam, self.learning_rate)
        return new_params

    def get_state(self) -> dict:
        """Kind, learning rate, step count and Adam moments (as arrays)."""
        return {
            "kind": self.kind,
            "learning_rate": self.learning_rate,
            "t": self.adam.t,
            "m": dict(self.adam.m),
            "v": dict(self.adam.v),
        }

    def set_state(self, state: dict) -> None:
        self.kind = state["kind"]
        self.learning_rate = state["learning_rate"]
        self.adam = AdamState(
            {n: np.asarray(a, dtype=np.float64) for n, a in state["m"].items()},
            {n: np.asarray(a, dtype=np.float64) for n, a in state["v"].items()},
            state["t"],
        )


# Archive entry names: a JSON header, then one array per parameter and per
# Adam moment. np.savez appends ".npy" to each name inside the zip.
_META = "meta"
_PARAM, _ADAM_M, _ADAM_V = "param/", "adam_m/", "adam_v/"


def save_paramset_file(
    path,
    params: ParamSet,
    config: Optional[MLPConfig] = None,
    optimizer_state: Optional[dict] = None,
) -> None:
    """Write one parameter set, its net config and optionally the state of
    the optimizer that updates it (`Optimizer.get_state`) as a numpy archive.
    Arrays are stored in binary, so loading gives back every bit."""
    meta = {
        "config": config.to_json() if config is not None else None,
        "entries": params.names(),
        "optimizer": None,
    }
    arrays = {_PARAM + n: a for n, a in params}
    if optimizer_state is not None:
        m, v = optimizer_state["m"], optimizer_state["v"]
        meta["optimizer"] = {
            "kind": optimizer_state["kind"],
            "learning_rate": optimizer_state["learning_rate"],
            "t": optimizer_state["t"],
            "moments": list(m),
        }
        arrays.update((_ADAM_M + n, m[n]) for n in m)
        arrays.update((_ADAM_V + n, v[n]) for n in m)
    arrays[_META] = np.array(json.dumps(meta))
    # a file object, not a path: np.savez appends ".npz" to a path without it
    with open(path, "wb") as fp:
        np.savez(fp, **arrays)


def load_paramset_file(path) -> tuple[ParamSet, Optional[MLPConfig], Optional[dict]]:
    """Read an archive written by save_paramset_file: the parameters, their
    config and the optimizer state (each None if not saved). A file that is
    not such an archive (truncated, foreign, missing an entry) raises
    ValueError; a missing file raises OSError."""
    try:
        with open(path, "rb") as fp, np.load(fp, allow_pickle=False) as archive:
            meta = json.loads(archive[_META].item())
            params = ParamSet((n, archive[_PARAM + n]) for n in meta["entries"])
            opt = meta["optimizer"]
            if opt is not None:
                names = opt["moments"]
                opt = {
                    "kind": opt["kind"],
                    "learning_rate": opt["learning_rate"],
                    "t": opt["t"],
                    "m": {n: archive[_ADAM_M + n] for n in names},
                    "v": {n: archive[_ADAM_V + n] for n in names},
                }
        config = MLPConfig.from_json(meta["config"]) if meta["config"] is not None else None
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        # ValueError also covers pickled or malformed .npy data and bad JSON
        raise ValueError(
            f"unreadable parameter archive {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return params, config, opt
