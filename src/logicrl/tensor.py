"""Dense MLP forward/backward passes, optimizers, and the binary parameter file.

Everything is float64. Parameters and gradients live in named, ordered
ParamSets; the optimizer and the parameter file see each set as one flat
vector in `ParamSet.flat()` order.
"""
from __future__ import annotations

import functools
import zipfile
from dataclasses import dataclass
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


@functools.lru_cache(maxsize=None)
def _layer_names(prefix: str, n_layers: int) -> tuple[tuple[str, str], ...]:
    """(weight, bias) entry names per layer, formatted once per net shape."""
    return tuple((f"{prefix}w{layer}", f"{prefix}b{layer}") for layer in range(n_layers))


def mlp_init(config: MLPConfig, seed: int, prefix: str = "") -> ParamSet:
    """Glorot-uniform weights, zero biases; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    entries = []
    sizes = config.layer_sizes
    for layer, (w_name, b_name) in enumerate(_layer_names(prefix, config.n_layers)):
        fan_in, fan_out = sizes[layer], sizes[layer + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        entries.append((w_name, w))
        entries.append((b_name, np.zeros(fan_out)))
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


# OpenBLAS 0.3 (measured with its SkylakeX kernels) sends a product of at
# most 100**3 multiply-adds to a small-matrix kernel, which sums a long inner
# axis in another order than its blocked kernel does; numpy sends a one-row
# product to gemv.
_SMALL_GEMM_MAX_MACS = 100**3


def _index_weight_grad(idx: np.ndarray, width: int, d_pre: np.ndarray) -> np.ndarray:
    """The weight gradient `onehot(idx).T @ d_pre` of a one-hot index input,
    bitwise equal to the dense product: BLAS sums each output row over the
    batch in the same order whatever the row count, so only the rows of the
    visited cells are computed and the rest stay zero. Too few rows would
    leave the dense product's kernel, so unvisited cells pad the visited
    ones up to `floor` rows."""
    n, h = d_pre.shape
    floor = min(width, max(2, _SMALL_GEMM_MAX_MACS // (n * h) + 1))
    idx = idx % width  # the forward gather read a negative index from the end
    cells, col = np.unique(idx, return_inverse=True)
    if len(cells) < floor:
        cells, col = np.unique(np.concatenate([idx, np.arange(floor)]), return_inverse=True)
        col = col[:n]
    onehot = np.zeros((n, len(cells)))
    onehot[np.arange(n), col] = 1.0
    grad = np.zeros((width, h))
    grad[cells] = onehot.T @ d_pre
    return grad


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
    the input batch, or None for a one-hot index input, whose layer-0 weight
    gradient comes from _index_weight_grad.
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
        if layer == 0 and index_input:
            grads[w_name] = _index_weight_grad(inputs[:, 0], config.layer_sizes[0], d_pre)
        else:
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
    if [(n, a.shape) for n, a in params] != [(n, g.shape) for n, g in grads]:
        raise ValueError("gradient names/shapes do not match parameters")
    for name, g in grads:
        if not np.all(np.isfinite(g)):
            raise UpdateRejected(f"non-finite gradient in {name!r}; step skipped")


class Optimizer:
    """SGD or Adam over one ParamSet's update stream. Each step updates the
    parameters as one flat vector in `ParamSet.flat()` order; the Adam
    moments `m` and `v` are flat vectors of that layout (None before the
    first Adam step) and `t` counts Adam steps."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, kind: str = "adam", learning_rate: float = 1e-3):
        if kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.t = 0
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None

    def step(self, params: ParamSet, grads: ParamSet) -> ParamSet:
        """The updated parameters. A mismatched or non-finite gradient raises
        (UpdateRejected names the entry), as does a non-finite result, and
        leaves the optimizer state as it was."""
        _check_update(params, grads)
        p, g = params.flat(), grads.flat()
        if self.kind == "sgd":
            return params.with_flat(p - self.learning_rate * g)
        t = self.t + 1
        # zero moments before the first step, so a -0.0 gradient gives +0.0
        m0 = np.zeros_like(p) if self.m is None else self.m
        v0 = np.zeros_like(p) if self.v is None else self.v
        m = self.beta1 * m0 + (1 - self.beta1) * g
        v = self.beta2 * v0 + (1 - self.beta2) * g * g
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        out = params.with_flat(p - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps))
        self.t, self.m, self.v = t, m, v
        return out

    def get_state(self) -> dict:
        """Step count and flat Adam moments; kind and learning rate come
        from the run config."""
        return {"t": self.t, "m": self.m, "v": self.v}

    def set_state(self, state: dict) -> None:
        self.t, self.m, self.v = state["t"], state["m"], state["v"]


def save_paramset_file(path, params: ParamSet, optimizer_state: Optional[dict] = None) -> None:
    """Write one parameter set as a numpy archive: `params`, the flat vector
    in `ParamSet.flat()` order, and with an optimizer state
    (`Optimizer.get_state`) its step count `t` and, once Adam has stepped,
    its moments `m` and `v`. Arrays are stored in binary, so loading gives
    back every bit. Entry names and shapes are not stored: the loader takes
    them from a ParamSet of the same net."""
    arrays = {"params": params.flat()}
    if optimizer_state is not None:
        arrays["t"] = np.int64(optimizer_state["t"])
        if optimizer_state["m"] is not None:
            arrays["m"], arrays["v"] = optimizer_state["m"], optimizer_state["v"]
    # a file object, not a path: np.savez appends ".npz" to a path without it
    with open(path, "wb") as fp:
        np.savez(fp, **arrays)


def _flat_array(archive, key: str, size: int) -> np.ndarray:
    a = archive[key]
    if a.dtype != np.float64 or a.shape != (size,):
        raise ValueError(f"{key!r} holds {a.dtype} {a.shape}, expected float64 ({size},)")
    return a


def load_paramset_file(path, like: ParamSet) -> tuple[ParamSet, Optional[dict]]:
    """Read an archive written by save_paramset_file for a net shaped like
    `like`: the parameters, laid out as `like`'s entries, and the optimizer
    state (None if not saved). A file that is not such an archive
    (truncated, foreign, missing an array, or of another length than `like`)
    raises ValueError; a missing file raises OSError."""
    size = like.n_params()
    try:
        with open(path, "rb") as fp, np.load(fp, allow_pickle=False) as archive:
            params = like.with_flat(_flat_array(archive, "params", size))
            state = None
            if "t" in archive.files:
                state = {"t": int(archive["t"]), "m": None, "v": None}
                if "m" in archive.files:
                    state["m"] = _flat_array(archive, "m", size)
                    state["v"] = _flat_array(archive, "v", size)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        # ValueError also covers pickled or malformed .npy data
        raise ValueError(
            f"unreadable parameter archive {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return params, state
