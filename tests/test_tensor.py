import gc
import math
import os
import warnings

import numpy as np
import pytest

import oracles
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
from oracles import dense_onehot, fd_gradient, grads_match


def zeroed(params: ParamSet) -> ParamSet:
    return params.zeros_like()


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
    with pytest.raises(ValueError):
        MLPConfig((3, 2), activation="sigmoid")
    with pytest.raises(ValueError):
        MLPConfig((3, 2), output_activation="tanh")


# -- forward ------------------------------------------------------------------


def test_forward_zero_params_zero_output():
    config = MLPConfig((3, 4, 2))
    params = zeroed(mlp_init(config, seed=0))
    out, _ = mlp_forward(params, config, np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(out, np.zeros(2))


def test_forward_identity_single_layer():
    config = MLPConfig((2, 2))
    params = ParamSet([("w0", np.eye(2)), ("b0", np.zeros(2))])
    out, _ = mlp_forward(params, config, np.array([0.3, -0.7]))
    assert np.allclose(out, [0.3, -0.7], atol=0)


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
    out, _ = mlp_forward(params, config, np.array([1.0, 0.0]))
    expected = 2.0 * math.tanh(0.6) - 1.0 * math.tanh(-1.2) + 0.05
    assert abs(out[0] - expected) < 1e-15


def test_forward_batch_matches_single():
    config = MLPConfig((3, 5, 4), output_activation="softmax")
    params = mlp_init(config, seed=5)
    batch = np.random.default_rng(1).normal(size=(6, 3))
    out_batch, _ = mlp_forward(params, config, batch)
    for i, row in enumerate(batch):
        out_single, _ = mlp_forward(params, config, row)
        # batched and per-row BLAS paths may differ in the last ulp
        assert np.allclose(out_batch[i], out_single, rtol=0, atol=1e-12)


def test_forward_repeat_calls_bit_identical():
    config = MLPConfig((3, 5, 4), output_activation="softmax")
    params = mlp_init(config, seed=5)
    batch = np.random.default_rng(1).normal(size=(6, 3))
    out1, _ = mlp_forward(params, config, batch)
    out2, _ = mlp_forward(params, config, batch)
    assert np.array_equal(out1, out2)


def test_forward_rejects_bad_shape():
    config = MLPConfig((3, 2))
    params = mlp_init(config, seed=0)
    with pytest.raises(ValueError):
        mlp_forward(params, config, np.zeros(4))


# -- backward -----------------------------------------------------------------


def test_backward_zero_grad_is_zero():
    config = MLPConfig((3, 4, 2))
    params = mlp_init(config, seed=1)
    out, cache = mlp_forward(params, config, np.array([0.1, 0.2, 0.3]))
    grads, input_grad = mlp_backward(params, config, cache, np.zeros_like(out))
    assert all(np.all(g == 0) for _, g in grads)
    assert np.all(input_grad == 0)


def test_backward_scalar_net():
    # y = w * x with x = 2: dL/dw = 2 for unit output gradient
    config = MLPConfig((1, 1))
    params = ParamSet([("w0", np.array([[3.0]])), ("b0", np.array([0.0]))])
    _, cache = mlp_forward(params, config, np.array([2.0]))
    grads, _ = mlp_backward(params, config, cache, np.array([1.0]))
    assert grads["w0"][0, 0] == 2.0
    assert grads["b0"][0] == 1.0


def test_backward_rejects_mismatched_cache():
    config = MLPConfig((3, 4, 2))
    params = mlp_init(config, seed=1)
    _, cache = mlp_forward(params, config, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        mlp_backward(params, config, cache, np.zeros((4, 2)))


@pytest.mark.parametrize(
    "config,seed",
    [
        (MLPConfig((3, 8, 4, 2), "tanh", "identity"), 10),
        (MLPConfig((2, 16, 3), "tanh", "softmax"), 11),
        (MLPConfig((4, 12, 6, 3), "relu", "identity"), 12),
        (MLPConfig((5, 64, 2), "tanh", "softmax"), 13),
    ],
)
def test_backward_matches_finite_differences(config, seed):
    rng = np.random.default_rng(seed)
    params = mlp_init(config, seed=seed)
    x = rng.normal(size=(4, config.layer_sizes[0]))
    if config.output_activation == "softmax":
        targets = rng.integers(config.layer_sizes[-1], size=4)

        def loss_fn(p):
            out, _ = mlp_forward(p, config, x)
            return -np.log(out[np.arange(4), targets]).sum()

        out, cache = mlp_forward(params, config, x)
        g_out = np.zeros_like(out)
        g_out[np.arange(4), targets] = -1.0 / out[np.arange(4), targets]
    else:
        v = rng.normal(size=config.layer_sizes[-1])

        def loss_fn(p):
            out, _ = mlp_forward(p, config, x)
            return float(np.sum(out * v))

        _, cache = mlp_forward(params, config, x)
        g_out = np.tile(v, (4, 1))
    grads, _ = mlp_backward(params, config, cache, g_out)
    numeric = fd_gradient(loss_fn, params)
    assert grads_match(grads.flat(), numeric)


def test_backward_input_gradient_matches_fd():
    config = MLPConfig((3, 6, 2))
    params = mlp_init(config, seed=2)
    x = np.array([0.4, -0.2, 0.9])
    v = np.array([0.7, -1.3])
    _, cache = mlp_forward(params, config, x)
    _, input_grad = mlp_backward(params, config, cache, v)
    eps = 1e-6
    for i in range(3):
        up, dn = x.copy(), x.copy()
        up[i] += eps
        dn[i] -= eps
        num = (np.dot(mlp_forward(params, config, up)[0], v)
               - np.dot(mlp_forward(params, config, dn)[0], v)) / (2 * eps)
        assert abs(input_grad[i] - num) < 1e-6


# -- one-hot index input -------------------------------------------------------


GRID_POLICY = MLPConfig((400, 64, 64, 5), "tanh", "softmax")


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
    hidden = {1: rng.normal(size=(n, 64))} if with_hidden else None
    out_i, cache_i = mlp_forward(params, GRID_POLICY, idx)
    out_d, cache_d = mlp_forward(params, GRID_POLICY, dense_onehot(idx, 400))
    assert same_bits(out_i, out_d)
    for a, b in zip(cache_i.pre + cache_i.post, cache_d.pre + cache_d.post):
        assert same_bits(a, b)
    grads_i, input_grad_i = mlp_backward(params, GRID_POLICY, cache_i, g_out, hidden)
    grads_d, input_grad_d = mlp_backward(params, GRID_POLICY, cache_d, g_out, hidden)
    assert grads_i.names() == grads_d.names()
    for name in grads_d.names():
        assert same_bits(grads_i[name], grads_d[name])
    assert input_grad_i is None and input_grad_d.shape == (n, 400)
    unvisited = np.setdiff1d(np.arange(400), idx)
    assert np.all(grads_i["w0"][unvisited] == 0.0)


def test_single_index_bitwise_equals_dense_row():
    params = mlp_init(GRID_POLICY, seed=3)
    out_i, cache_i = mlp_forward(params, GRID_POLICY, np.array([37]))
    out_d, cache_d = mlp_forward(params, GRID_POLICY, dense_onehot([37], 400)[0])
    assert out_i.shape == (5,) and same_bits(out_i, out_d)
    g_out = np.linspace(-1.0, 1.0, 5)
    grads_i, input_grad = mlp_backward(params, GRID_POLICY, cache_i, g_out)
    grads_d, _ = mlp_backward(params, GRID_POLICY, cache_d, g_out)
    assert input_grad is None
    assert all(same_bits(grads_i[name], grads_d[name]) for name in grads_d.names())


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


# -- optimizers ---------------------------------------------------------------


def test_sgd_zero_lr_is_identity():
    params = mlp_init(MLPConfig((3, 2)), seed=0)
    grads = ParamSet([(n, np.ones_like(a)) for n, a in params])
    updated = Optimizer("sgd", 0.0).step(params, grads)
    for name, arr in params:
        assert np.array_equal(arr, updated[name])


def test_sgd_definition():
    params = ParamSet([("w0", np.array([[1.0]])), ("b0", np.array([0.0]))])
    grads = ParamSet([("w0", np.array([[0.5]])), ("b0", np.array([0.0]))])
    updated = Optimizer("sgd", 0.1).step(params, grads)
    assert updated["w0"][0, 0] == 0.95


def test_sgd_rejects_nan_grads():
    params = ParamSet([("w0", np.array([[1.0]])), ("b0", np.array([0.0]))])
    bad = params.copy()
    bad.entries["w0"] = np.array([[np.nan]])  # bypass constructor check
    with pytest.raises(UpdateRejected, match="'w0'"):
        Optimizer("sgd", 0.1).step(params, bad)
    assert params["w0"][0, 0] == 1.0


def test_adam_zero_lr_and_determinism():
    params = mlp_init(MLPConfig((4, 3)), seed=1)
    grads = ParamSet([(n, np.full_like(a, 0.3)) for n, a in params])
    opt = Optimizer("adam", 0.0)
    updated = opt.step(params, grads)
    for name, arr in params:
        assert np.array_equal(arr, updated[name])
    assert opt.t == 1
    a1 = Optimizer("adam", 1e-3).step(params, grads)
    a2 = Optimizer("adam", 1e-3).step(params, grads)
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


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_matches_per_entry_reference(kind):
    """The flat-vector update equals the per-entry reference bit for bit at
    each of 25 steps on the grid policy's shapes: parameters, and for Adam
    the step count and both moments."""
    params = mlp_init(MLPConfig((400, 64, 64, 5), "tanh", "softmax"), seed=3, prefix="pi.")
    ref_params, ref_state = params, {"t": 0, "m": {}, "v": {}}
    opt = Optimizer(kind, 1e-3)
    rng = np.random.default_rng(3)
    for _ in range(25):
        grads = special_gradients(params, rng)
        params = opt.step(params, grads)
        if kind == "sgd":
            ref_params = oracles.sgd_step(ref_params, grads, 1e-3)
        else:
            ref_params, ref_state = oracles.adam_step(ref_params, grads, ref_state, 1e-3)
        assert params.names() == ref_params.names()
        for name, arr in ref_params:
            assert params[name].shape == arr.shape
            assert params[name].tobytes() == arr.tobytes()
        state = opt.get_state()
        if kind == "sgd":
            assert state == {"t": 0, "m": None, "v": None}
            continue
        assert state["t"] == ref_state["t"]
        for key in ("m", "v"):
            want = np.concatenate([ref_state[key][n].ravel() for n in params.names()])
            assert state[key].tobytes() == want.tobytes()


def test_rejected_adam_step_leaves_the_state():
    params = mlp_init(MLPConfig((3, 2)), seed=2)
    grads = ParamSet([(n, np.full_like(a, 0.1)) for n, a in params])
    opt = Optimizer("adam", 1e-2)
    opt.step(params, grads)
    before = {k: (v.copy() if isinstance(v, np.ndarray) else v)
              for k, v in opt.get_state().items()}
    bad = grads.copy()
    bad.entries["b0"] = np.array([0.0, np.inf])
    with pytest.raises(UpdateRejected, match="'b0'"):
        opt.step(params, bad)
    with pytest.raises(ValueError, match="names/shapes"):
        opt.step(params, ParamSet([(n, g) for n, g in reversed(list(grads))]))
    after = opt.get_state()
    assert after["t"] == before["t"] == 1
    for key in ("m", "v"):
        assert after[key].tobytes() == before[key].tobytes()


def test_optimizer_state_roundtrip(tmp_path):
    params = mlp_init(MLPConfig((3, 2)), seed=4)
    grads = ParamSet([(n, np.full_like(a, 0.1)) for n, a in params])
    opt = Optimizer("adam", 1e-2)
    p1 = opt.step(params, grads)
    snapshot = opt.get_state()
    assert snapshot["t"] == 1
    for key in ("m", "v"):
        assert snapshot[key].dtype == np.float64 and snapshot[key].shape == (params.n_params(),)
    p2a = opt.step(p1, grads)
    # through the archive, as a checkpoint stores it
    path = tmp_path / "opt.params"
    save_paramset_file(path, p1, snapshot)
    _, loaded = load_paramset_file(path, params)
    for restored in (snapshot, loaded):
        opt2 = Optimizer("adam", 1e-2)
        opt2.set_state(restored)
        assert opt2.t == 1
        assert opt2.m.tobytes() == snapshot["m"].tobytes()
        assert opt2.v.tobytes() == snapshot["v"].tobytes()
        p2b = opt2.step(p1, grads)
        for name, arr in p2a:
            assert np.array_equal(arr, p2b[name])
    # an optimizer that has not stepped has no moments
    save_paramset_file(path, params, Optimizer("adam", 1e-3).get_state())
    _, fresh = load_paramset_file(path, params)
    assert fresh == {"t": 0, "m": None, "v": None}


# -- parameter archive --------------------------------------------------------


def assert_bitwise_equal(loaded: ParamSet, params: ParamSet):
    assert loaded.names() == params.names()
    for name, arr in params:
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_paramset_checkpoint_roundtrip(tmp_path):
    config = MLPConfig((3, 5, 2), "relu", "softmax")
    params = mlp_init(config, seed=9)
    path = tmp_path / "policy.params"
    save_paramset_file(path, params)
    assert os.listdir(tmp_path) == ["policy.params"]  # no ".npz" appended
    loaded, opt_state = load_paramset_file(path, mlp_init(config, seed=10))
    assert opt_state is None
    assert_bitwise_equal(loaded, params)
    with np.load(path) as archive:
        assert archive.files == ["params"]


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
    save_paramset_file(path, params, state)
    loaded, opt = load_paramset_file(path, params.zeros_like())
    assert_bitwise_equal(loaded, params)
    assert np.signbit(loaded["zeros"]).tolist() == [True, False, True]
    assert np.signbit(loaded["scalar"]) and loaded["scalar"].shape == ()
    assert opt["t"] == 7 and type(opt["t"]) is int
    for key in ("m", "v"):
        assert opt[key].dtype == np.float64 and opt[key].tobytes() == state[key].tobytes()


def write_archive(path, **arrays):
    """A hand-made archive holding exactly `arrays`."""
    with open(path, "wb") as fp:
        np.savez(fp, **arrays)


def test_failed_paramset_load_closes_the_file(tmp_path):
    params = mlp_init(MLPConfig((3, 2)), seed=1)
    good = tmp_path / "good.params"
    save_paramset_file(good, params)
    data = good.read_bytes()
    (tmp_path / "truncated").write_bytes(data[: len(data) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            load_paramset_file(tmp_path / "truncated", params)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_paramset_checkpoint_bad_magic(tmp_path):
    """Anything but a complete archive for a net of `like`'s size is a
    ValueError naming the file."""
    like = mlp_init(MLPConfig((3, 2)), seed=1)
    n = like.n_params()
    good = tmp_path / "good.params"
    opt = Optimizer("adam", 1e-3)
    opt.step(like, like)
    save_paramset_file(good, like, opt.get_state())
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
    with open(tmp_path / "pickled", "wb") as fp:
        np.savez(fp, params=np.array([{"a": 1}], dtype=object))
    archives = {
        "no_params": {"t": np.int64(0)},
        "short": {"params": np.zeros(n - 1)},
        "long": {"params": np.zeros(n + 1)},
        "two_d": {"params": np.zeros((1, n))},
        "float32": {"params": np.zeros(n, dtype=np.float32)},
        "short_moment": {"params": np.zeros(n), "t": np.int64(1),
                         "m": np.zeros(n - 1), "v": np.zeros(n)},
        "missing_v": {"params": np.zeros(n), "t": np.int64(1), "m": np.zeros(n)},
        "vector_t": {"params": np.zeros(n), "t": np.arange(2)},
        # an archive of the 0.2.0 layout: one array per entry and a JSON header
        "entry_layout": {"meta": np.array("{}"), "param/w0": np.zeros((3, 2)),
                         "param/b0": np.zeros(2)},
    }
    for name, arrays in archives.items():
        write_archive(tmp_path / name, **arrays)
    for name in [*cases, "pickled", *archives]:
        with pytest.raises(ValueError, match=f"unreadable parameter archive .*{name}"):
            load_paramset_file(tmp_path / name, like)
    # a well-formed archive of another net's size
    with pytest.raises(ValueError, match="unreadable parameter archive"):
        load_paramset_file(good, mlp_init(MLPConfig((3, 3)), seed=1))
    with pytest.raises(OSError):
        load_paramset_file(tmp_path / "absent.params", like)


def test_paramset_rejects_nonfinite_and_duplicates(tmp_path):
    with pytest.raises(ValueError):
        ParamSet([("a", np.array([np.inf]))])
    with pytest.raises(ValueError):
        ParamSet([("a", np.zeros(1)), ("a", np.zeros(1))])
    # the same check guards what an archive holds, naming the entry
    like = ParamSet([("a", np.zeros(1)), ("b", np.zeros(2))])
    write_archive(tmp_path / "inf.params", params=np.array([1.0, 0.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite values in entry 'b'"):
        load_paramset_file(tmp_path / "inf.params", like)
