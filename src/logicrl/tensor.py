"""Dense tanh MLP forward/backward passes, the Adam optimizer, and the binary
parameter file.

Everything is float64. A ParamSet is one finite, read-only vector plus a
layout of (name, shape) rows; each entry is a reshaped view of its slice of
that vector, so the optimizer and the parameter file use the vector itself.
A net's layer l reads its weight and bias as entries 2l and 2l+1, the order
mlp_init lays them out in. Importing the module sets glibc's malloc thresholds
(see _keep_freed_heap_mapped).
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import zipfile
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

OUTPUT_ACTIVATIONS = ("identity", "softmax")

# glibc's mallopt parameters (malloc.h) and the values set for them. An update
# pass frees a few MB of (rows x hidden) activations. On the grid bridge config
# the faults stopped only with an mmap threshold of at least 1.5 MiB and a trim
# threshold of at least 5.5 MiB; at 6 MiB some heap layouts (they move with
# the length of sys.path entries) still gave back and re-faulted about 5.6 MB
# once in the first dozen iterations, which 8 MiB did not. A larger trim
# threshold keeps more freed memory resident.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_TRIM_BYTES = 8 << 20
_HEAP_MMAP_BYTES = 2 << 20


def _keep_freed_heap_mapped() -> bool:
    """Have glibc keep freed heap pages mapped, so the next training iteration
    reuses them instead of page-faulting them back in; returns whether it did.

    By default glibc returns the freed top of the heap to the kernel past a
    trim threshold, and serves large arrays from mmaps it unmaps on free.
    Both thresholds are fixed: fixing either one turns off glibc's dynamic
    mmap threshold, and with the default 128 kB every larger array would be
    mmapped and faulted on each use. On another libc, or if mallopt is missing
    or refuses, nothing is set. No arithmetic changes.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: a trim threshold set on its own is the bad case
    return bool(mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES)) and \
        bool(mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES))


_keep_freed_heap_mapped()


class UpdateRejected(ValueError):
    """Raised when an optimizer step would write non-finite values."""


@dataclass(frozen=True)
class MLPConfig:
    """Shape of a fully-connected net: sizes of input, hidden and output layers.

    Every layer except the last applies tanh; the output activation is
    identity or softmax (softmax only for categorical heads).
    """

    layer_sizes: tuple[int, ...]
    output_activation: str = "identity"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive: {sizes}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


def _entry_views(vec: np.ndarray, layout) -> list[np.ndarray]:
    """Each (name, shape) row of `layout` as a reshaped view of its slice of
    the 1-D `vec`, in order."""
    views, start = [], 0
    for _, shape in layout:
        stop = start + math.prod(shape)
        views.append(vec[start:stop].reshape(shape))
        start = stop
    if vec.ndim != 1 or start != vec.size:
        raise ValueError("flat vector length mismatch")
    return views


def _nonfinite_entry(params: "ParamSet") -> Optional[str]:
    """The name of the first entry holding a non-finite value, or None; one
    pass over the vector unless there is one."""
    if np.isfinite(params.flat()).all():
        return None
    return next(name for name, a in params if not np.isfinite(a).all())


class ParamSet:
    """One finite, read-only float64 vector read as named entries: `layout`
    lists each entry's (name, shape) in order, and `views[i]` is entry i as a
    reshaped view of its slice of the vector."""

    def __init__(self, entries: Iterable[tuple[str, np.ndarray]]):
        entries = [(name, np.asarray(a, dtype=np.float64)) for name, a in entries]
        names = [name for name, _ in entries]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"duplicate entry name {name!r}")
        vec = np.concatenate([np.zeros(0)] + [a.ravel() for _, a in entries])
        self._wrap(vec, tuple((name, a.shape) for name, a in entries))

    def _wrap(self, vec: np.ndarray, layout) -> None:
        vec = vec.view()
        vec.flags.writeable = False
        self.layout, self.views, self._vec = layout, tuple(_entry_views(vec, layout)), vec
        bad = _nonfinite_entry(self)
        if bad is not None:
            raise ValueError(f"non-finite values in entry {bad!r}")

    def __iter__(self):
        return zip((name for name, _ in self.layout), self.views)

    def __getitem__(self, name: str) -> np.ndarray:
        return dict(self)[name]

    def n_params(self) -> int:
        return self._vec.size

    def scaled(self, factor: float) -> "ParamSet":
        return self.with_flat(self._vec * factor)

    def flat(self) -> np.ndarray:
        """The vector itself; nothing writes it, so it stays a snapshot."""
        return self._vec

    def with_flat(self, vec: np.ndarray) -> "ParamSet":
        """`vec`, without a copy, read in this set's layout."""
        out = ParamSet.__new__(ParamSet)
        out._wrap(np.asarray(vec, dtype=np.float64), self.layout)
        return out


def mlp_init(config: MLPConfig, seed: int, prefix: str = "") -> ParamSet:
    """Glorot-uniform weights, zero biases; deterministic for a fixed seed.
    Layer l's weight and bias are entries 2l and 2l+1, named
    `{prefix}w{l}` and `{prefix}b{l}`."""
    rng = np.random.default_rng(seed)
    entries = []
    sizes = config.layer_sizes
    for layer in range(config.n_layers):
        fan_in, fan_out = sizes[layer], sizes[layer + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        entries.append((f"{prefix}w{layer}", w))
        entries.append((f"{prefix}b{layer}", np.zeros(fan_out)))
    return ParamSet(entries)


@dataclass
class MLPCache:
    """What mlp_backward reads of a forward pass: the input, each layer's
    output, and the output layer's pre-activation. A hidden layer's
    pre-activation is not kept: the activation overwrites it, and the
    activation's derivative is read from the output. Under an identity
    output, `logits` is the output array itself."""

    inputs: np.ndarray            # (n, d_in) floats, or (n, 1) one-hot indices
    post: list[np.ndarray]        # each layer's output, (n, d_l)
    logits: np.ndarray            # the output layer's pre-activation, (n, d_out)


def _as_batch(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what}: expected an (n, {dim}) batch, got shape {x.shape}")
    return x


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a vector or a matrix of rows."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax of empty input")
    # in place on the fresh shifted array: same ufuncs, so the same bits
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def mlp_forward(params: ParamSet, config: MLPConfig, x: np.ndarray) -> tuple[np.ndarray, MLPCache]:
    """Run the net on a batch of row vectors.

    An integer input is a column of one-hot indices: row i stands for the
    unit vector with a 1 at x[i, 0], and layer 0 is the row gather
    `W0[x[:, 0]] + b0`, bitwise equal to the dense product.

    Returns the (n, d_out) output and the activation cache needed for
    mlp_backward. Each hidden tanh is applied in place on its layer's
    fresh product, so the pass allocates one array per layer (two for a
    softmax output); the bits are those of the out-of-place formulas.
    """
    weights = params.views
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        if x.ndim != 2 or x.shape[1] != 1:
            raise ValueError(
                "mlp_forward input: an integer input holds one one-hot index per row, "
                f"as an (n, 1) column; got shape {x.shape}"
            )
        pre = weights[0][x[:, 0]]
    else:
        x = _as_batch(x, config.layer_sizes[0], "mlp_forward input")
        pre = x @ weights[0]
    # each bias is added in place on the fresh gather or product: the same
    # additions as `+`, without a second temporary
    pre += weights[1]
    post_list: list[np.ndarray] = []
    for i in range(2, 2 * config.n_layers, 2):
        np.tanh(pre, out=pre)
        post_list.append(pre)
        pre = pre @ weights[i]
        pre += weights[i + 1]
    h = softmax(pre) if config.output_activation == "softmax" else pre
    post_list.append(h)
    return h, MLPCache(x, post_list, pre)


# OpenBLAS 0.3 (measured with its SkylakeX kernels) sends a product of at
# most 100**3 multiply-adds to a small-matrix kernel, which sums a long inner
# axis in another order than its blocked kernel does; numpy sends a one-row
# product to gemv.
_SMALL_GEMM_MAX_MACS = 100**3


def _index_weight_grad(idx: np.ndarray, d_pre: np.ndarray, out: np.ndarray) -> None:
    """Fill the zeroed (width, h) `out` with the weight gradient
    `onehot(idx).T @ d_pre` of a one-hot index input, bitwise equal to the
    dense product: BLAS sums each output row over the batch in the same
    order whatever the row count, so only the rows of the visited cells are
    computed and the rest stay zero. Too few rows would leave the dense
    product's kernel, so unvisited cells pad the visited ones up to `floor`
    rows."""
    width = len(out)
    n, h = d_pre.shape
    floor = min(width, max(2, _SMALL_GEMM_MAX_MACS // (n * h) + 1))
    idx = idx % width  # the forward gather read a negative index from the end
    cells, col = np.unique(idx, return_inverse=True)
    if len(cells) < floor:
        cells, col = np.unique(np.concatenate([idx, np.arange(floor)]), return_inverse=True)
        col = col[:n]
    onehot = np.zeros((n, len(cells)))
    onehot[np.arange(n), col] = 1.0
    out[cells] = onehot.T @ d_pre


def _times_activation_grad(d_post: np.ndarray, post: np.ndarray) -> None:
    """Multiply `d_post` in place by tanh's derivative, read from tanh's
    output as 1 - post*post. The slope is one temporary array, freed on
    return."""
    slope = np.multiply(post, post)
    np.subtract(1.0, slope, out=slope)
    d_post *= slope


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
    Gradients are summed over the batch and written into views of one
    zeroed vector in `params`'s layout. Also returns the gradient w.r.t.
    the input batch, or None for a one-hot index input, whose layer-0 weight
    gradient comes from _index_weight_grad.

    A hidden layer's activation derivative is read from its output (see
    _times_activation_grad). The trunk gradient and the derivative are
    applied in place on the `d_pre @ W.T` product the pass made itself;
    `output_grad`, `hidden_grads` and the cache are only read.
    """
    if len(cache.post) != config.n_layers:
        raise ValueError("cache does not match config")
    g = _as_batch(output_grad, config.layer_sizes[-1], "mlp_backward output_grad")
    if g.shape[0] != cache.inputs.shape[0]:
        raise ValueError("output_grad does not match cached batch")
    inputs = cache.inputs
    index_input = inputs.dtype.kind in "iu"
    flat = np.zeros(params.n_params())
    grads = _entry_views(flat, params.layout)
    last = config.n_layers - 1
    d_post = g
    for layer in range(last, -1, -1):
        post = cache.post[layer]
        if layer == last:
            if config.output_activation == "softmax":
                # exact softmax Jacobian-transpose product, row-wise
                dot = np.sum(d_post * post, axis=1, keepdims=True)
                d_pre = post * (d_post - dot)
            else:
                d_pre = d_post
        else:
            # d_post is this pass's own product, taken over before the
            # previous layer's d_pre is dropped: the same additions and
            # products as `d_post + extra` and `d_post * slope`, in place
            d_pre = d_post
            if hidden_grads and layer in hidden_grads:
                d_pre += hidden_grads[layer]
            _times_activation_grad(d_pre, post)
        if layer == 0 and index_input:
            _index_weight_grad(inputs[:, 0], d_pre, grads[0])
        else:
            h_in = inputs if layer == 0 else cache.post[layer - 1]
            np.matmul(h_in.T, d_pre, out=grads[2 * layer])
        np.sum(d_pre, axis=0, out=grads[2 * layer + 1])
        if layer or not index_input:
            d_post = d_pre @ params.views[2 * layer].T
    return params.with_flat(flat), (None if index_input else d_post)


def _check_update(params: ParamSet, grads: ParamSet) -> None:
    if params.layout != grads.layout:
        raise ValueError("gradient names/shapes do not match parameters")
    bad = _nonfinite_entry(grads)
    if bad is not None:
        raise UpdateRejected(f"non-finite gradient in {bad!r}; step skipped")


class Optimizer:
    """Adam over one ParamSet's update stream. Each step updates the
    parameters as one flat vector in `ParamSet.flat()` order; the moments
    `m` and `v` are flat vectors of that layout (None before the first
    step) and `t` counts steps. The step is per coordinate, so in exact
    arithmetic a gradient scaled by c > 0 moves it only through `eps`."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.t = 0
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None

    def step(self, params: ParamSet, grads: ParamSet) -> ParamSet:
        """The updated parameters. A mismatched or non-finite gradient raises
        (UpdateRejected names the entry), as does a non-finite result, and
        leaves the optimizer state as it was.

        The step computes m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        p - (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps) in that order, in
        place on two work vectors. The new `m` and `v` and the new
        parameters are fresh arrays: the arrays of an earlier `get_state()`
        are never written."""
        _check_update(params, grads)
        p, g = params.flat(), grads.flat()
        t = self.t + 1
        # zero moments before the first step, so a -0.0 gradient gives +0.0;
        # b * 0.0 is +0.0, so zeros stand for b times the zero moments
        m = np.zeros_like(p) if self.m is None else np.multiply(self.beta1, self.m)
        v = np.zeros_like(p) if self.v is None else np.multiply(self.beta2, self.v)
        work = np.multiply(1 - self.beta1, g)
        m += work
        np.multiply(1 - self.beta2, g, out=work)
        work *= g
        v += work
        np.divide(m, 1 - self.beta1**t, out=work)
        work *= self.learning_rate
        denom = np.divide(v, 1 - self.beta2**t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        work /= denom
        out = params.with_flat(np.subtract(p, work, out=denom))
        self.t, self.m, self.v = t, m, v
        return out

    def get_state(self) -> dict:
        """Step count and flat moments; the learning rate comes from the run
        config."""
        return {"t": self.t, "m": self.m, "v": self.v}

    def set_state(self, state: dict) -> None:
        self.t, self.m, self.v = state["t"], state["m"], state["v"]


def _digest(untrained: ParamSet) -> np.ndarray:
    """The sha256 of a vector's little-endian float64 bytes, as 32 uint8s."""
    vec = np.ascontiguousarray(untrained.flat(), dtype="<f8")
    return np.frombuffer(hashlib.sha256(vec).digest(), dtype=np.uint8)


def save_paramset_file(path, params: ParamSet, optimizer_state: dict,
                       untrained: ParamSet) -> None:
    """Write one parameter set as a numpy archive that stores only the
    elements training touched. `untrained` is the same net as seeded; an
    element is touched if its parameter's bits differ from `untrained`'s or
    its Adam moment `m` or `v` is not +0.0 (bits again, so a -0.0 is kept).

    The archive holds `touched`, the `np.packbits` of that mask over the
    vector in `ParamSet.flat()` order; `untrained_sha256`, the digest of the
    untrained vector; `params` at the touched positions; the optimizer
    state's (`Optimizer.get_state`) step count `t`; and, once the optimizer
    has stepped, `m` and `v` at the touched positions. Arrays are
    stored in binary, so loading gives back every bit. On the grid bridge
    config, the one-hot rows of cells the agent never reached are never
    touched: 20-39 % of a bundle's dense bytes, by seed, are left out. On
    cart-pole every element is touched. Entry names and shapes are not
    stored: the loader takes them, and the untouched values, from the
    untrained net."""
    p = params.flat()
    touched = p.view(np.uint64) != untrained.flat().view(np.uint64)
    moments = {}
    if optimizer_state["m"] is not None:
        moments = {key: optimizer_state[key] for key in ("m", "v")}
    for moment in moments.values():
        touched |= moment.view(np.uint64) != 0
    arrays = {"touched": np.packbits(touched), "untrained_sha256": _digest(untrained),
              "params": p[touched], "t": np.int64(optimizer_state["t"])}
    arrays.update((key, moment[touched]) for key, moment in moments.items())
    # a file object, not a path: np.savez appends ".npz" to a path without it
    with open(path, "wb") as fp:
        np.savez(fp, **arrays)


def _flat_array(archive, key: str, size: int) -> np.ndarray:
    a = archive[key]
    if a.dtype != np.float64 or a.shape != (size,):
        raise ValueError(f"{key!r} holds {a.dtype} {a.shape}, expected float64 ({size},)")
    return a


def _touched_mask(archive, size: int) -> np.ndarray:
    """The archive's `touched` mask, unpacked to `size` booleans."""
    packed = archive["touched"]
    if packed.dtype != np.uint8 or packed.shape != ((size + 7) // 8,):
        raise ValueError(
            f"'touched' holds {packed.dtype} {packed.shape}, expected uint8 ({(size + 7) // 8},)"
        )
    bits = np.unpackbits(packed)
    if bits[size:].any():
        raise ValueError(f"'touched' sets padding bits past element {size}")
    return bits[:size].view(bool)


def load_paramset_file(path, like: ParamSet) -> tuple[ParamSet, dict]:
    """Read an archive written by save_paramset_file for the untrained net
    `like`: the parameters, laid out as `like`'s entries, and the optimizer
    state. The stored values are scattered at the touched positions into a
    copy of `like`'s vector and, for `m` and `v`, into +0.0 vectors.

    A file that is not such an archive raises ValueError: truncated or
    foreign; missing an array; a mask of the wrong dtype or length, with
    nonzero padding bits, or whose bit count differs from a stored array's
    length; a digest other than `like`'s (a file of another seed's bundle,
    which would mix two initialisations); or a step count and moments no
    optimizer writes. A missing file raises OSError."""
    size = like.n_params()
    try:
        with open(path, "rb") as fp, np.load(fp, allow_pickle=False) as archive:
            mask = _touched_mask(archive, size)
            digest = archive["untrained_sha256"]
            if digest.dtype != np.uint8 or digest.shape != (32,) \
                    or digest.tobytes() != _digest(like).tobytes():
                raise ValueError("'untrained_sha256' is not the digest of this net as seeded")
            n = int(np.count_nonzero(mask))
            vec = like.flat().copy()
            vec[mask] = _flat_array(archive, "params", n)
            params = like.with_flat(vec)
            t = archive["t"]
            if t.shape != () or t.dtype.kind not in "iu" or t < 0:
                raise ValueError(f"'t' holds {t.dtype} {t.tolist()!r}, expected an integer >= 0")
            t = int(t)
            # the optimizer has moments exactly once it has stepped
            if ("m" in archive.files or "v" in archive.files) != (t >= 1):
                raise ValueError(f"step count {t} {'without' if t else 'with'} moments")
            state = {"t": t, "m": None, "v": None}
            if t >= 1:
                for key in ("m", "v"):
                    state[key] = np.zeros(size)
                    state[key][mask] = _flat_array(archive, key, n)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        # ValueError also covers pickled or malformed .npy data
        raise ValueError(
            f"unreadable parameter archive {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return params, state
