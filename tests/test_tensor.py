import gc
import hashlib
import math
import os
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

import oracles
from logicrl import tensor
from logicrl.tensor import (
    MLPConfig,
    Optimizer,
    ParamSet,
    UpdateRejected,
    load_paramset_file,
    mlp_backward,
    mlp_forward,
    mlp_init,
    save_paramset_file,
    softmax,
)
from oracles import dense_onehot, fd_gradient, grads_match, paramset_with


# -- init ---------------------------------------------------------------------


def test_init_shapes():
    params = mlp_init(MLPConfig((2, 3, 1)), seed=7)
    shapes = {name: arr.shape for name, arr in params}
    assert shapes == {"w0": (2, 3), "b0": (3,), "w1": (3, 1), "b1": (1,)}


def test_init_deterministic():
    a = mlp_init(MLPConfig((4, 8, 3)), seed=42)
    b = mlp_init(MLPConfig((4, 8, 3)), seed=42)
    for name, arr in a:
        assert np.array_equal(arr, b[name])


def test_init_biases_zero():
    params = mlp_init(MLPConfig((4, 64, 64, 5)), seed=0)
    for name, arr in params:
        if name.startswith("b"):
            assert np.all(arr == 0.0)


def test_init_glorot_bounds():
    config = MLPConfig((6, 10, 2))
    params = mlp_init(config, seed=3)
    for layer, (fan_in, fan_out) in enumerate(zip(config.layer_sizes, config.layer_sizes[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w = params[f"w{layer}"]
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        MLPConfig((3,))
    with pytest.raises(ValueError):
        MLPConfig((3, 0, 1))


# -- forward ------------------------------------------------------------------


def test_forward_zero_params_zero_output():
    config = MLPConfig((3, 4, 2))
    params = paramset_with(mlp_init(config, seed=0), fill=0.0)
    out, _ = mlp_forward(params, config, np.array([[1.0, -2.0, 0.5]]))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_forward_identity_single_layer():
    config = MLPConfig((2, 2))
    params = ParamSet([("w0", np.eye(2)), ("b0", np.zeros(2))])
    out, _ = mlp_forward(params, config, np.array([[0.3, -0.7]]))
    assert np.allclose(out, [[0.3, -0.7]], atol=0)


def test_forward_hand_computed_tanh_net():
    # one hidden tanh layer with hand-set weights; expected value worked out
    # from the closed-form forward pass on input (1, 0)
    config = MLPConfig((2, 2, 1))
    params = ParamSet(
        [
            ("w0", np.array([[0.5, -1.0], [0.25, 0.3]])),
            ("b0", np.array([0.1, -0.2])),
            ("w1", np.array([[2.0], [-1.0]])),
            ("b1", np.array([0.05])),
        ]
    )
    out, _ = mlp_forward(params, config, np.array([[1.0, 0.0]]))
    expected = 2.0 * math.tanh(0.6) - 1.0 * math.tanh(-1.2) + 0.05
    assert abs(out[0, 0] - expected) < 1e-15


def test_forward_batch_matches_single():
    config = MLPConfig((3, 5, 4))
    params = mlp_init(config, seed=5)
    batch = np.random.default_rng(1).normal(size=(6, 3))
    out_batch, _ = mlp_forward(params, config, batch)
    for i in range(len(batch)):
        out_single, _ = mlp_forward(params, config, batch[i : i + 1])
        # batched and one-row BLAS paths may differ in the last ulp
        assert np.allclose(out_batch[i], out_single[0], rtol=0, atol=1e-12)


def test_forward_repeat_calls_bit_identical():
    config = MLPConfig((3, 5, 4))
    params = mlp_init(config, seed=5)
    batch = np.random.default_rng(1).normal(size=(6, 3))
    out1, _ = mlp_forward(params, config, batch)
    out2, _ = mlp_forward(params, config, batch)
    assert np.array_equal(out1, out2)


def test_forward_rejects_bad_shape():
    """The net takes (n, d_in) float batches and (n, 1) index columns only;
    a 1-D input of either kind raises."""
    config = MLPConfig((3, 2))
    params = mlp_init(config, seed=0)
    for x in (np.zeros((1, 4)), np.zeros(3), np.array([1])):
        with pytest.raises(ValueError):
            mlp_forward(params, config, x)


# -- backward -----------------------------------------------------------------


def test_backward_zero_grad_is_zero():
    config = MLPConfig((3, 4, 2))
    params = mlp_init(config, seed=1)
    out, cache = mlp_forward(params, config, np.array([[0.1, 0.2, 0.3]]))
    grads = mlp_backward(params, config, cache, np.zeros_like(out))
    assert all(np.all(g == 0) for _, g in grads)


def test_backward_scalar_net():
    # y = w * x with x = 2: dL/dw = 2 for unit output gradient
    config = MLPConfig((1, 1))
    params = ParamSet([("w0", np.array([[3.0]])), ("b0", np.array([0.0]))])
    _, cache = mlp_forward(params, config, np.array([[2.0]]))
    grads = mlp_backward(params, config, cache, np.array([[1.0]]))
    assert grads["w0"][0, 0] == 2.0
    assert grads["b0"][0] == 1.0


def test_backward_rejects_mismatched_cache():
    config = MLPConfig((3, 4, 2))
    params = mlp_init(config, seed=1)
    _, cache = mlp_forward(params, config, np.zeros((5, 3)))
    for output_grad in (np.zeros((4, 2)), np.zeros(2)):
        with pytest.raises(ValueError):
            mlp_backward(params, config, cache, output_grad)


@pytest.mark.parametrize(
    "config,seed",
    [
        (MLPConfig((3, 8, 4, 2)), 10),
        (MLPConfig((2, 16, 3)), 11),
        (MLPConfig((4, 12, 6, 3)), 12),
        (MLPConfig((5, 64, 2)), 13),
    ],
)
def test_backward_matches_finite_differences(config, seed):
    rng = np.random.default_rng(seed)
    params = mlp_init(config, seed=seed)
    x = rng.normal(size=(4, config.layer_sizes[0]))
    v = rng.normal(size=config.layer_sizes[-1])

    def loss_fn(p):
        out, _ = mlp_forward(p, config, x)
        return float(np.sum(out * v))

    _, cache = mlp_forward(params, config, x)
    grads = mlp_backward(params, config, cache, np.tile(v, (4, 1)))
    numeric = fd_gradient(loss_fn, params)
    assert grads_match(grads.flat(), numeric)


def test_backward_trunk_gradient_matches_fd():
    """`trunk_grad` is the gradient of a side loss read from the last hidden
    layer's output: the parameter gradients are those of the sum of both
    losses. A trunk gradient of another shape, or for a net with no hidden
    layer, raises."""
    rng = np.random.default_rng(2)
    x, v = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
    for config in (MLPConfig((3, 6, 2)), MLPConfig((3, 5, 6, 2))):
        params = mlp_init(config, seed=2)
        u = rng.normal(size=(3, config.layer_sizes[-2]))

        def loss_fn(p):
            out, cache = mlp_forward(p, config, x)
            return float(np.sum(out * v) + np.sum(cache.post[-2] * u))

        _, cache = mlp_forward(params, config, x)
        grads = mlp_backward(params, config, cache, v, trunk_grad=u)
        assert grads_match(grads.flat(), fd_gradient(loss_fn, params))
        for bad in (u[:2], u[:, :-1]):
            with pytest.raises(ValueError, match="trunk_grad"):
                mlp_backward(params, config, cache, v, trunk_grad=bad)
    one_layer = MLPConfig((3, 2))
    params = mlp_init(one_layer, seed=2)
    _, cache = mlp_forward(params, one_layer, x)
    with pytest.raises(ValueError, match="trunk_grad"):
        mlp_backward(params, one_layer, cache, v, trunk_grad=x)


# Each case id names the hidden activation too: tanh, the only one. The
# head is what reads the linear output: a regressor ("identity") takes its
# gradient as it is; the policy ("softmax") takes it back through the
# softmax Jacobian-transpose product, as policy_value_loss does.
@pytest.mark.parametrize("head", ["identity", "softmax"], ids=lambda o: f"{o}-tanh")
@pytest.mark.parametrize("index_input", [False, True])
@pytest.mark.parametrize("n", [1, 20, 1000])
def test_backward_writes_nothing_its_caller_owns(head, index_input, n):
    """The backward pass works in place only on arrays it made: the output
    gradient, the trunk gradient and every cached array keep their bits,
    and the gradients equal the out-of-place reference."""
    width = 400 if index_input else 6
    config = MLPConfig((width, 16, 8, 5))
    rng = np.random.default_rng(n)
    params = mlp_init(config, seed=n)
    params = params.with_flat(rng.normal(scale=0.5, size=params.n_params()))
    x = rng.integers(0, width, size=(n, 1)) if index_input else rng.normal(size=(n, width))
    out, cache = mlp_forward(params, config, x)
    g_out = rng.normal(size=(n, 5))
    if head == "softmax":
        probs = softmax(out)
        g_out = probs * (g_out - np.sum(g_out * probs, axis=1, keepdims=True))
    trunk = rng.normal(size=(n, 8))
    owned = [cache.inputs, *cache.post, g_out, trunk]
    before = [a.copy() for a in owned]
    grads = mlp_backward(params, config, cache, g_out, trunk)
    for got, want in zip(owned, before):
        assert same_bits(got, want)
    if not index_input:
        want = oracles.per_entry_backward(params, config, cache, g_out, trunk)
        assert grads.flat().tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()


# -- one-hot index input -------------------------------------------------------


GRID_POLICY = MLPConfig((400, 64, 64, 5))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def visited_cells(n: int, seed: int) -> np.ndarray:
    """(n, 1) int64 indices drawn with repeats from half the cells, so the
    other half are never visited."""
    rng = np.random.default_rng(seed)
    return rng.choice(np.arange(0, 400, 2), size=(n, 1))


@pytest.mark.parametrize("n", [1, 20, 1000])
@pytest.mark.parametrize("with_hidden", [False, True])
def test_index_input_bitwise_equals_dense_onehot(n, with_hidden):
    """An int index column gives the same bits as its dense one-hot rows:
    outputs, every cached layer, and every gradient entry."""
    params = mlp_init(GRID_POLICY, seed=n)
    idx = visited_cells(n, seed=n)
    if n > 1:
        assert len(np.unique(idx)) < n  # some cells repeat
    rng = np.random.default_rng(n + 1)
    g_out = rng.normal(size=(n, 5))
    trunk = rng.normal(size=(n, 64)) if with_hidden else None
    out_i, cache_i = mlp_forward(params, GRID_POLICY, idx)
    out_d, cache_d = mlp_forward(params, GRID_POLICY, dense_onehot(idx, 400))
    assert same_bits(out_i, out_d)
    for a, b in zip(cache_i.post, cache_d.post):
        assert same_bits(a, b)
    grads_i = mlp_backward(params, GRID_POLICY, cache_i, g_out, trunk)
    grads_d = mlp_backward(params, GRID_POLICY, cache_d, g_out, trunk)
    assert grads_i.layout == grads_d.layout
    for (name, got), (_, want) in zip(grads_i, grads_d):
        assert same_bits(got, want), name
    unvisited = np.setdiff1d(np.arange(400), idx)
    assert np.all(grads_i["w0"][unvisited] == 0.0)


@pytest.mark.parametrize("n_cells", [1, 3, 7, 8, 9, 64, 137, 399, 400])
def test_visited_cell_weight_gradient_bitwise_equals_dense(n_cells):
    """The layer-0 weight gradient of an index input, computed over the
    visited cells only, equals the dense one-hot product in every entry,
    whatever the number of visited cells, with one cell visited 1000
    times. A one-layer identity net, whose layer-0 d_pre is the output
    gradient, salts d_pre with -0.0 and subnormals."""
    rng = np.random.default_rng(n_cells)
    cells = rng.choice(400, size=n_cells, replace=False)
    idx = rng.permutation(np.concatenate([cells, np.full(1000, cells[0])]))[:, None]
    n = len(idx)
    salted = rng.normal(size=(n, 64))
    salted[rng.random(salted.shape) < 0.1] = -0.0
    tiny = rng.random(salted.shape) < 0.1
    salted[tiny] = rng.choice([-1.0, 1.0], size=tiny.sum()) * 5e-324 * rng.integers(1, 2**40, size=tiny.sum())
    assert np.any((salted != 0) & (np.abs(salted) < np.finfo(float).tiny))
    one_layer = MLPConfig((400, 64))
    for config, g_out in ((GRID_POLICY, rng.normal(size=(n, 5))), (one_layer, salted)):
        params = mlp_init(config, seed=n_cells)
        _, cache_i = mlp_forward(params, config, idx)
        _, cache_d = mlp_forward(params, config, dense_onehot(idx, 400))
        grads_i = mlp_backward(params, config, cache_i, g_out)
        grads_d = mlp_backward(params, config, cache_d, g_out)
        for (name, got), (_, want) in zip(grads_i, grads_d):
            assert same_bits(got, want), name
        assert not np.any(grads_i["w0"][np.setdiff1d(np.arange(400), cells)])


def test_negative_index_gradient_matches_its_forward_alias():
    """A negative index reads W0 from the end, as numpy indexing does, and
    its gradient lands on the same row as in the dense product, summed with
    the row's positive alias."""
    params = mlp_init(GRID_POLICY, seed=5)
    idx = np.array([[-1], [399], [3], [-400], [0]])
    g_out = np.random.default_rng(5).normal(size=(5, 5))
    _, cache_i = mlp_forward(params, GRID_POLICY, idx)
    _, cache_d = mlp_forward(params, GRID_POLICY, dense_onehot(idx, 400))
    grads_i = mlp_backward(params, GRID_POLICY, cache_i, g_out)
    grads_d = mlp_backward(params, GRID_POLICY, cache_d, g_out)
    assert all(same_bits(got, want) for (_, got), (_, want) in zip(grads_i, grads_d))


def test_single_index_bitwise_equals_dense_row():
    params = mlp_init(GRID_POLICY, seed=3)
    out_i, cache_i = mlp_forward(params, GRID_POLICY, np.array([[37]]))
    out_d, cache_d = mlp_forward(params, GRID_POLICY, dense_onehot([37], 400))
    assert out_i.shape == (1, 5) and same_bits(out_i, out_d)
    g_out = np.linspace(-1.0, 1.0, 5)[None, :]
    grads_i = mlp_backward(params, GRID_POLICY, cache_i, g_out)
    grads_d = mlp_backward(params, GRID_POLICY, cache_d, g_out)
    assert all(same_bits(got, want) for (_, got), (_, want) in zip(grads_i, grads_d))


def test_index_input_rejects_bad_indices_and_shapes():
    params = mlp_init(GRID_POLICY, seed=0)
    for too_big in ([[400]], [[3], [1000]]):
        with pytest.raises(IndexError):
            mlp_forward(params, GRID_POLICY, np.array(too_big))
    for bad_shape in (np.zeros((3, 2), dtype=np.int64), np.array([1, 2])):
        with pytest.raises(ValueError):
            mlp_forward(params, GRID_POLICY, bad_shape)


# -- softmax ------------------------------------------------------------------


def test_softmax_uniform():
    assert np.allclose(softmax(np.array([1.0, 1.0, 1.0])), [1 / 3] * 3, atol=1e-15)


def test_softmax_extreme_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert abs(out[0] - 1.0) < 1e-12 and out[1] < 1e-12


def test_softmax_hand_value():
    out = softmax(np.array([0.0, math.log(3.0)]))
    assert abs(out[0] - 0.25) < 1e-12
    assert abs(out[1] - 0.75) < 1e-12


def test_softmax_sums_to_one_for_finite_inputs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.uniform(-700, 700, size=rng.integers(1, 9))
        out = softmax(z)
        assert not np.any(np.isnan(out))
        assert abs(out.sum() - 1.0) <= 1e-12


def test_softmax_rejects_empty():
    with pytest.raises(ValueError):
        softmax(np.array([]))


# -- optimizer ----------------------------------------------------------------


def test_adam_zero_lr_and_determinism():
    params = mlp_init(MLPConfig((4, 3)), seed=1)
    grads = ParamSet([(n, np.full_like(a, 0.3)) for n, a in params])
    opt = Optimizer(params.n_params(), 0.0)
    updated = opt.step(params, grads)
    for name, arr in params:
        assert np.array_equal(arr, updated[name])
    assert opt.t == 1
    a1 = Optimizer(params.n_params(), 1e-3).step(params, grads)
    a2 = Optimizer(params.n_params(), 1e-3).step(params, grads)
    for name, arr in a1:
        assert np.array_equal(arr, a2[name])
    # first Adam step moves every entry by about the learning rate
    assert np.allclose(np.abs(a1["w0"] - params["w0"]), 1e-3, rtol=1e-4)


def special_gradients(params: ParamSet, rng) -> ParamSet:
    """Normal gradients salted with -0.0, +0.0, subnormals and magnitudes up
    to 1e150 (whose squares stay finite)."""
    tiny = np.finfo(np.float64).smallest_subnormal
    specials = np.array([-0.0, 0.0, tiny, -tiny, 7 * tiny, np.finfo(np.float64).tiny / 3,
                         1e150, -1e150, 3e100, -2.5e-300])
    out = []
    for name, a in params:
        g = rng.normal(size=a.shape)
        mask = rng.random(a.shape) < 0.2
        g[mask] = rng.choice(specials, size=int(mask.sum()))
        out.append((name, g))
    return ParamSet(out)


@pytest.mark.parametrize("learning_rate", [1e-3], ids=["adam"])
def test_optimizer_matches_per_entry_reference(learning_rate):
    """The flat-vector update equals the per-entry reference bit for bit at
    each of 25 steps on the grid policy's shapes: parameters, the step count
    and both moments."""
    params = mlp_init(GRID_POLICY, seed=3, prefix="pi.")
    ref_params, ref_state = params, {"t": 0, "m": {}, "v": {}}
    opt = Optimizer(params.n_params(), learning_rate)
    rng = np.random.default_rng(3)
    for _ in range(25):
        grads = special_gradients(params, rng)
        params = opt.step(params, grads)
        ref_params, ref_state = oracles.adam_step(ref_params, grads, ref_state, learning_rate)
        assert params.layout == ref_params.layout
        for name, arr in ref_params:
            assert params[name].shape == arr.shape
            assert params[name].tobytes() == arr.tobytes()
        state = opt.get_state()
        assert state["t"] == ref_state["t"]
        for key in ("m", "v"):
            want = np.concatenate([ref_state[key][n].ravel() for n, _ in params])
            assert state[key].tobytes() == want.tobytes()


def test_rejected_adam_step_leaves_the_state():
    """A NaN or inf gradient is refused, naming its entry, and leaves the
    parameters and the optimizer state as they were."""
    params = mlp_init(MLPConfig((3, 2)), seed=2)
    kept = params.flat().copy()
    grads = ParamSet([(n, np.full_like(a, 0.1)) for n, a in params])
    opt = Optimizer(params.n_params(), 1e-2)
    opt.step(params, grads)
    before = {k: (v.copy() if isinstance(v, np.ndarray) else v)
              for k, v in opt.get_state().items()}
    for name, value in (("b0", [0.0, np.inf]), ("w0", np.nan)):
        with pytest.raises(UpdateRejected, match=f"'{name}'"):
            opt.step(params, paramset_with(grads, {name: value}))
    assert params.flat().tobytes() == kept.tobytes()
    with pytest.raises(ValueError, match="names/shapes"):
        opt.step(params, ParamSet([(n, g) for n, g in reversed(list(grads))]))
    after = opt.get_state()
    assert after["t"] == before["t"] == 1
    for key in ("m", "v"):
        assert after[key].tobytes() == before[key].tobytes()


def test_adam_step_leaves_an_earlier_state_and_its_inputs():
    """Adam works in place only on its own work arrays: the moments of a
    `get_state()` taken before a step, the parameters and the gradients keep
    their bits, and the new moments are new arrays."""
    params = mlp_init(MLPConfig((4, 6, 3)), seed=8)
    rng = np.random.default_rng(8)
    opt = Optimizer(params.n_params(), 1e-2)
    for _ in range(3):
        grads = special_gradients(params, rng)
        earlier = opt.get_state()
        owned = [params.flat(), grads.flat(), earlier["m"], earlier["v"]]
        before = [a.copy() for a in owned]
        stepped = opt.step(params, grads)
        for got, want in zip(owned, before):
            assert same_bits(got, want)
        for key in ("m", "v"):
            assert not np.shares_memory(opt.get_state()[key], earlier[key])
        assert not np.shares_memory(stepped.flat(), opt.m) and not np.shares_memory(stepped.flat(), opt.v)
        params = stepped


def test_optimizer_state_roundtrip(tmp_path):
    params = mlp_init(MLPConfig((3, 2)), seed=4)
    grads = ParamSet([(n, np.full_like(a, 0.1)) for n, a in params])
    opt = Optimizer(params.n_params(), 1e-2)
    p1 = opt.step(params, grads)
    snapshot = opt.get_state()
    assert snapshot["t"] == 1
    for key in ("m", "v"):
        assert snapshot[key].dtype == np.float64 and snapshot[key].shape == (params.n_params(),)
    p2a = opt.step(p1, grads)
    # through the archive, as a checkpoint stores it
    path = tmp_path / "opt.params"
    save_paramset_file(path, p1, snapshot, params)
    _, loaded = load_paramset_file(path, params)
    for restored in (snapshot, loaded):
        opt2 = Optimizer(params.n_params(), 1e-2)
        opt2.set_state(restored)
        assert opt2.t == 1
        assert opt2.m.tobytes() == snapshot["m"].tobytes()
        assert opt2.v.tobytes() == snapshot["v"].tobytes()
        p2b = opt2.step(p1, grads)
        for name, arr in p2a:
            assert np.array_equal(arr, p2b[name])
    # an optimizer that has not stepped has +0.0 moments, as Adam starts them
    save_paramset_file(path, params, Optimizer(params.n_params()).get_state(), params)
    _, fresh = load_paramset_file(path, params)
    assert fresh["t"] == 0
    for key in ("m", "v"):
        assert fresh[key].tobytes() == bytes(8 * params.n_params())


# -- parameter file -----------------------------------------------------------


def assert_bitwise_equal(loaded: ParamSet, params: ParamSet):
    assert loaded.layout == params.layout
    for name, arr in params:
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


HEADER_BYTES = 24  # magic, format version, element count, step count


def raw_fields(like: ParamSet, values=None, t: int = 0, moments=(), touched=None) -> dict:
    """The fields of a `.params` file for the untrained net `like`, in file
    order, built here independently of the writer: `values` (default
    `like`'s own) and each (name, vector) of `moments` are stored at the
    `touched` positions (default: all). A top plane's `*_length` is None,
    which `raw_bytes` fills in with that plane's length."""
    n = like.n_params()
    touched = np.ones(n, dtype=bool) if touched is None else np.asarray(touched)
    values = like.flat() if values is None else np.asarray(values, dtype=np.float64)
    fields = {
        "magic": b"LRLP",
        "version": struct.pack("<I", 1),
        "n": struct.pack("<q", n),
        "t": struct.pack("<q", t),
        "mask": np.packbits(touched).tobytes(),
        "digest": hashlib.sha256(like.flat().astype("<f8").tobytes()).digest(),
    }
    for key, vec in (("params", values), *moments):
        planes = np.asarray(vec, dtype="<f8")[touched].view(np.uint8).reshape(-1, 8)
        fields[f"{key}_low"] = planes[:, :7].tobytes()
        fields[f"{key}_length"] = None
        fields[f"{key}_top"] = zlib.compress(planes[:, 7].tobytes(), 1)
    return fields


def raw_bytes(fields: dict, **edits) -> bytes:
    """`fields` joined in order, each field named in `edits` replaced by its
    bytes first (None drops it, and a new name goes at the end); a
    `*_length` left None is the length of its top plane."""
    fields = {**fields, **edits}
    out = []
    for name, data in fields.items():
        if name.endswith("_length") and data is None and name not in edits:
            data = struct.pack("<Q", len(fields[name[: -len("length")] + "top"]))
        if data is not None:
            out.append(data)
    return b"".join(out)


def test_paramset_checkpoint_roundtrip(tmp_path):
    config = MLPConfig((3, 5, 2))
    params = mlp_init(config, seed=9)
    path = tmp_path / "policy.params"
    untrained = mlp_init(config, seed=10)
    zeros = np.zeros(params.n_params())
    save_paramset_file(path, params, Optimizer(params.n_params()).get_state(), untrained)
    assert os.listdir(tmp_path) == ["policy.params"]
    loaded, opt_state = load_paramset_file(path, untrained)
    assert opt_state["t"] == 0
    assert opt_state["m"].tobytes() == opt_state["v"].tobytes() == zeros.tobytes()
    assert_bitwise_equal(loaded, params)
    # the zero biases are untouched, and an unstepped optimizer's +0.0
    # moments are stored at the touched positions
    touched = params.flat() != untrained.flat()
    moments = (("m", zeros), ("v", zeros))
    assert path.read_bytes() == raw_bytes(raw_fields(untrained, params.flat(), 0, moments, touched))


def test_paramset_file_layout(tmp_path):
    """A `.params` file is the header, the packed mask, the 32-byte digest
    and, per stored array of k elements, 7k low bytes, an 8-byte length and
    the deflated top plane: byte for byte what `raw_fields` builds."""
    like = mlp_init(MLPConfig((3, 16, 4)), seed=2)
    n = like.n_params()
    assert n % 8
    opt = Optimizer(n, 1e-2)
    grads = paramset_with(like, {"w1": 0.5, "b1": -0.25}, fill=0.0)
    params = opt.step(like, grads)
    state = opt.get_state()
    path = tmp_path / "layout.params"
    save_paramset_file(path, params, state, like)
    data = path.read_bytes()
    touched = (state["m"] != 0) | (params.flat() != like.flat())
    k = int(touched.sum())
    assert 0 < k < n
    tops = [zlib.compress(a[touched].astype("<f8").view(np.uint8)[7::8].tobytes(), 1)
            for a in (params.flat(), state["m"], state["v"])]
    assert len(data) == HEADER_BYTES + (n + 7) // 8 + 32 + sum(7 * k + 8 + len(top) for top in tops)
    moments = (("m", state["m"]), ("v", state["v"]))
    assert data == raw_bytes(raw_fields(like, params.flat(), 1, moments, touched))
    # an unstepped net as seeded touches nothing (k = 0), and its file has
    # the same layout: each of the three arrays is an empty low plane, a
    # length and the deflate of no bytes
    save_paramset_file(path, like, Optimizer(n).get_state(), like)
    data = path.read_bytes()
    zeros = np.zeros(n)
    untouched = np.zeros(n, dtype=bool)
    empty_top = zlib.compress(b"", 1)
    assert len(data) == HEADER_BYTES + (n + 7) // 8 + 32 + 3 * (8 + len(empty_top))
    assert data == raw_bytes(raw_fields(like, None, 0, (("m", zeros), ("v", zeros)), untouched))


def test_paramset_archive_is_bitwise_exact(tmp_path):
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    params = ParamSet([
        ("zeros", np.array([-0.0, 0.0, -0.0])),
        ("subnormal", np.array([[tiny, -tiny], [3 * tiny, np.finfo(np.float64).tiny / 3]])),
        ("huge", np.array([1e308, -1e308, big, -big])),
        ("single", np.array([0.1])),
        ("scalar", np.array(-0.0)),
    ])
    m = params.flat()[::-1].copy()
    state = {"t": 7, "m": m, "v": -m}
    path = tmp_path / "special.params"
    untrained = paramset_with(params, fill=0.0)
    save_paramset_file(path, params, state, untrained)
    loaded, opt = load_paramset_file(path, untrained)
    assert_bitwise_equal(loaded, params)
    assert np.signbit(loaded["zeros"]).tolist() == [True, False, True]
    assert np.signbit(loaded["scalar"]) and loaded["scalar"].shape == ()
    assert opt["t"] == 7 and type(opt["t"]) is int
    for key in ("m", "v"):
        assert opt[key].dtype == np.float64 and opt[key].tobytes() == state[key].tobytes()


def test_failed_paramset_load_closes_the_file(tmp_path):
    params = mlp_init(MLPConfig((3, 2)), seed=1)
    good = tmp_path / "good.params"
    save_paramset_file(good, params, Optimizer(params.n_params()).get_state(), params)
    data = good.read_bytes()
    (tmp_path / "truncated").write_bytes(data[: len(data) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            load_paramset_file(tmp_path / "truncated", params)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_paramset_checkpoint_bad_magic(tmp_path):
    """Anything but a complete file for the untrained net `like` is a
    ValueError naming the file: among others, a file of an older format, a
    mask or digest of the wrong kind, and a file written for a net of
    another seed. Each built case edits one field of a good file."""
    like = mlp_init(MLPConfig((2, 3)), seed=1)
    n = like.n_params()
    assert n % 8  # so the mask has padding bits
    good = tmp_path / "good.params"
    opt = Optimizer(n, 1e-3)
    opt.step(like, paramset_with(like, fill=1.0))
    state = opt.get_state()
    save_paramset_file(good, like, state, like)
    data = good.read_bytes()
    cases = {
        "empty": b"",
        "text": b"not-a-checkpoint\n",
        "old_text_format": b"paramset-v1\nversion_tag v1\nconfig -\nentries 0\ndata\n",
        "truncated": data[: len(data) // 2],
        "truncated_tail": data[:-10],
    }
    for name, content in cases.items():
        (tmp_path / name).write_bytes(content)
    # an np.savez archive of the 0.7.0 layout
    with open(tmp_path / "savez_0_7_0", "wb") as fp:
        np.savez(fp, touched=np.packbits(np.ones(n, dtype=bool)),
                 untrained_sha256=np.frombuffer(data[28:60], dtype=np.uint8),
                 params=like.flat(), t=np.int64(0))
    for name in [*cases, "savez_0_7_0"]:
        with pytest.raises(ValueError, match=f"unreadable parameter file .*{name}"):
            load_paramset_file(tmp_path / name, like)

    # every element stored, as for a net that has stepped once
    stepped = raw_fields(like, t=1, moments=(("m", state["m"]), ("v", state["v"])))
    params_only = raw_fields(like)  # the layout 0.8.0 wrote for a step count of 0
    assert raw_bytes(stepped) == data
    packed = stepped["mask"]
    other_seed = raw_fields(mlp_init(MLPConfig((2, 3)), seed=2))["digest"]
    bomb = zlib.compress(bytes(n + 1), 1)
    malformed = {
        "other_magic": (stepped, {"magic": b"LRLQ"}, "no LRLP magic"),
        "other_version": (stepped, {"version": struct.pack("<I", 2)}, "format version 2, expected 1"),
        "other_size": (stepped, {"n": struct.pack("<q", n + 1)}, "a net of 10 elements, expected 9"),
        "negative_t": (stepped, {"t": struct.pack("<q", -1)}, "step count -1 is negative"),
        "padding_bits": (stepped, {"mask": packed[:-1] + bytes([packed[-1] | 1])}, "padding bits"),
        "mask_counts_fewer": (stepped, {"mask": np.packbits(np.arange(n) % 2 == 0).tobytes()},
                              "truncated|trail|top plane"),
        "short_mask": (stepped, {"mask": packed[:-1]}, "padding bits|not the digest of this net"),
        "zero_digest": (stepped, {"digest": bytes(32)}, "not the digest of this net"),
        "other_seed_digest": (stepped, {"digest": other_seed}, "not the digest of this net"),
        "short_params": (stepped, {"params_low": stepped["params_low"][:-7]}, "top plane"),
        "short_moment": (stepped, {"m_low": stepped["m_low"][:-7]}, "top plane"),
        "missing_v": (stepped, {"v_low": None, "v_length": None, "v_top": None},
                      "truncated: the low bytes of 'v'"),
        "unstepped_without_moments": (params_only, {}, "truncated: the low bytes of 'm'"),
        "stepped_without_moments": (params_only, {"t": struct.pack("<q", 3)},
                                    "truncated: the low bytes of 'm'"),
        "trailing_bytes": (stepped, {"tail": b"\0"}, "1 bytes trail"),
        "top_left_over": (stepped, {"v_length": struct.pack("<Q", len(stepped["v_top"]) + 1),
                                    "v_top": stepped["v_top"] + b"\0"}, "not one deflate stream"),
        "top_inflates_short": (stepped, {"params_top": zlib.compress(bytes(n - 1), 1)},
                               "not one deflate stream of 9 bytes"),
        "top_inflates_long": (stepped, {"params_top": bomb}, "inflates past 9 bytes"),
        "top_not_deflate": (stepped, {"m_top": b"not a deflate stream"}, "the top plane of 'm': "),
        "top_length_past_end": (stepped, {"params_length": struct.pack("<Q", 2**63)},
                                "truncated: the top plane of 'params'"),
    }
    for name, (fields, edits, message) in malformed.items():
        (tmp_path / name).write_bytes(raw_bytes(fields, **edits))
        with pytest.raises(ValueError, match=f"unreadable parameter file .*{name}: .*({message})"):
            load_paramset_file(tmp_path / name, like)
    # a well-formed file of another net's size, and of the same net seeded otherwise
    with pytest.raises(ValueError, match="unreadable parameter file .*a net of 9 elements, expected 20"):
        load_paramset_file(good, mlp_init(MLPConfig((4, 4)), seed=1))
    with pytest.raises(ValueError, match="unreadable parameter file .*not the digest of this net"):
        load_paramset_file(good, mlp_init(MLPConfig((2, 3)), seed=2))
    with pytest.raises(OSError):
        load_paramset_file(tmp_path / "absent.params", like)


def test_top_plane_inflating_past_its_count_is_refused_without_inflating_it(tmp_path):
    """A top plane that would inflate to 16 MiB for 9 stored elements is
    refused, and the load allocates about the size of the file, not of
    what the plane would inflate to."""
    like = mlp_init(MLPConfig((2, 3)), seed=1)
    path = tmp_path / "bomb.params"
    path.write_bytes(raw_bytes(raw_fields(like), params_top=zlib.compress(bytes(16 << 20), 9)))
    assert path.stat().st_size < 1 << 16
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="the top plane of 'params' inflates past 9 bytes"):
            load_paramset_file(path, like)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_paramset_rejects_nonfinite_and_duplicates(tmp_path):
    with pytest.raises(ValueError):
        ParamSet([("a", np.array([np.inf]))])
    with pytest.raises(ValueError):
        ParamSet([("a", np.zeros(1)), ("a", np.zeros(1))])
    # the same check guards what a file holds, naming the entry
    like = ParamSet([("a", np.zeros(1)), ("b", np.zeros(2))])
    (tmp_path / "inf.params").write_bytes(raw_bytes(raw_fields(like, [1.0, 0.0, np.nan])))
    with pytest.raises(ValueError, match="non-finite values in entry 'b'"):
        load_paramset_file(tmp_path / "inf.params", like)


TINY = np.finfo(np.float64).smallest_subnormal
UNTRAINED = ParamSet([("w", np.array([[0.0, 0.5], [-0.25, 1.0]])), ("b", np.zeros(3))])


def _adam_state(m, v, t=3):
    return {"t": t, "m": np.array(m, dtype=np.float64), "v": np.array(v, dtype=np.float64)}


# each case: the parameter vector, the optimizer state, and how many
# elements the file must store of the 7
SPARSE_CASES = {
    # -0.0 == +0.0, so only a comparison of bits stores it
    "negative_zero_parameter": ([0.0, 0.5, -0.25, 1.0, -0.0, 0.0, 0.0],
                                _adam_state([0.0] * 7, [0.0] * 7, t=0), 1),
    "negative_zero_and_subnormal_moments": (
        [0.0, 0.5, -0.25, 1.0, 0.0, 0.0, 0.0],
        _adam_state([-0.0, 0, 0, 0, TINY, 0, 0], [0, 0, -0.0, 0, 0, 0, 3 * TINY]), 4),
    "unstepped_zero_moments": ([0.0, 0.5 + 2**-53, -0.25, 1.0, 0.0, 0.0, TINY],
                               _adam_state([0.0] * 7, [0.0] * 7, t=0), 2),
    "untouched": ([0.0, 0.5, -0.25, 1.0, 0.0, 0.0, 0.0], _adam_state([0.0] * 7, [0.0] * 7), 0),
    "all_touched": ([-0.0, -TINY, 0.25, 1e308, TINY, -1.0, 2.0],
                    _adam_state([-TINY, 1, -1, 0.5, TINY, 2, -0.0], [TINY, 1, 2, 3, 4, 5, -0.0]), 7),
}


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_sparse_archive_keeps_every_bit(tmp_path, case):
    """A file stores exactly the elements whose parameter bits differ
    from the untrained net's or whose moments are not +0.0, and loading
    gives back every bit of the parameters and the moments."""
    vec, state, n_stored = SPARSE_CASES[case]
    params = UNTRAINED.with_flat(np.array(vec))
    path = tmp_path / "sparse.params"
    save_paramset_file(path, params, state, UNTRAINED)
    mask = np.unpackbits(np.frombuffer(path.read_bytes(), dtype=np.uint8,
                                       count=1, offset=HEADER_BYTES))
    assert mask.sum() == n_stored
    loaded, opt = load_paramset_file(path, UNTRAINED)
    assert_bitwise_equal(loaded, params)
    assert opt["t"] == state["t"]
    for key in ("m", "v"):
        assert opt[key].dtype == np.float64 and opt[key].tobytes() == state[key].tobytes()


@pytest.mark.parametrize(
    "config", [MLPConfig((3, 5, 6, 4)), MLPConfig((3, 5, 6, 2))]
)
def test_paramset_is_read_only_views_of_one_vector(config):
    """Writing into an entry or the vector raises; `with_flat(v)` reads `v`
    without a copy; a `flat()` taken before an optimizer step is unchanged
    after it; and mlp_backward's gradient vector equals the per-entry
    reference bit for bit."""
    params = mlp_init(config, seed=6)
    for target in (params["w1"], params["b0"], params.flat()):
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 1.0
    v = np.arange(params.n_params(), dtype=np.float64)
    wrapped = params.with_flat(v)
    assert wrapped.layout == params.layout
    assert all(np.shares_memory(view, v) for _, view in wrapped)
    rng = np.random.default_rng(6)
    x, g_out = rng.normal(size=(7, 3)), rng.normal(size=(7, config.layer_sizes[-1]))
    trunk = rng.normal(size=(7, 6))
    _, cache = mlp_forward(params, config, x)
    grads = mlp_backward(params, config, cache, g_out, trunk)
    want = oracles.per_entry_backward(params, config, cache, g_out, trunk)
    assert [a.shape for a in want] == [shape for _, shape in grads.layout]
    assert grads.flat().tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()
    before = params.flat()
    saved = before.copy()
    stepped = Optimizer(params.n_params(), 1e-2).step(params, grads)
    assert before.tobytes() == saved.tobytes() and params.flat() is before
    assert not np.shares_memory(stepped.flat(), before)


# -- heap setting ---------------------------------------------------------------


class _FakeLibc:
    """Stands in for ctypes.CDLL(None); records mallopt calls."""

    def __init__(self, result=1, has_mallopt=True):
        self.calls = []
        if has_mallopt:
            def mallopt(param, value):
                self.calls.append((param, value))
                return result
            self.mallopt = mallopt


def _raises(exc):
    def call(*args):
        raise exc
    return call


@pytest.mark.parametrize("case", ["no confstr", "confstr raises", "confstr empty",
                                  "no libc handle", "no mallopt", "mallopt refuses"])
def test_heap_setting_does_nothing_and_raises_nothing_off_glibc(case, monkeypatch):
    """Without glibc, without a mallopt symbol, or when mallopt refuses, the
    helper sets nothing, raises nothing and says so; a refused mmap threshold
    leaves the trim threshold alone, since that one set alone is the bad
    case."""
    libc = _FakeLibc(result=0 if case == "mallopt refuses" else 1,
                     has_mallopt=case != "no mallopt")
    monkeypatch.setattr(tensor.ctypes, "CDLL", _raises(OSError("no handle"))
                        if case == "no libc handle" else lambda name: libc)
    if case == "no confstr":
        monkeypatch.delattr(tensor.os, "confstr")
    else:
        monkeypatch.setattr(tensor.os, "confstr", {
            "confstr raises": _raises(ValueError("unrecognized configuration name")),
            "confstr empty": lambda name: None,
        }.get(case, lambda name: "glibc 2.36"))
    assert tensor._keep_freed_heap_mapped() is False
    refused = [(tensor._M_MMAP_THRESHOLD, tensor._HEAP_MMAP_BYTES)]
    assert libc.calls == (refused if case == "mallopt refuses" else [])


def test_heap_setting_sets_both_thresholds_on_glibc(monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(tensor.ctypes, "CDLL", lambda name: libc)
    monkeypatch.setattr(tensor.os, "confstr", lambda name: "glibc 2.36")
    assert tensor._keep_freed_heap_mapped() is True
    assert libc.calls == [(tensor._M_MMAP_THRESHOLD, tensor._HEAP_MMAP_BYTES),
                          (tensor._M_TRIM_THRESHOLD, tensor._HEAP_TRIM_BYTES)]
