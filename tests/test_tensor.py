import gc
import itertools
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from weckd.tensor import (
    ContractError,
    NumericError,
    ShapeError,
    Tape,
    _col2im,
    _im2col,
    conv2d,
    dense,
    gap,
    maxpool2,
    relu,
    sgd_step,
)
from weckd.backbone import BackboneConfig, build_model, forward_on_tape
from weckd.losses import hybrid_loss, hybrid_loss_grad

from oracles import finite_diff_check, kept_columns_weight_grad


def test_conv2d_scalar_product():
    out = conv2d(np.full((1, 1, 1, 1), 2.0), np.full((1, 1, 1, 1), 3.0), np.zeros(1))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 6.0


def test_conv2d_identity_kernel():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = conv2d(x, np.ones((1, 1, 1, 1)), np.zeros(1))
    np.testing.assert_array_equal(out, x)


def test_conv2d_all_ones_sum():
    out = conv2d(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1), pad=1)
    np.testing.assert_array_equal(out[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])


def test_conv2d_matches_brute_force():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    out = conv2d(x, w, b, stride=1, pad=1)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.empty_like(out)
    for n in range(2):
        for f in range(4):
            for i in range(5):
                for j in range(5):
                    ref[n, f, i, j] = (xp[n, :, i:i + 3, j:j + 3] * w[f]).sum() + b[f]
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_conv2d_channel_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)), np.zeros(1))
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_conv2d_output_size_formula():
    # same padding: the output keeps the input's size, also below the kernel's
    rng = np.random.default_rng(1)
    for _ in range(20):
        H, W = (int(n) for n in rng.integers(1, 12, size=2))
        k = int(rng.choice([1, 3, 5]))
        out = conv2d(rng.normal(size=(1, 1, H, W)), rng.normal(size=(1, 1, k, k)),
                     np.zeros(1), stride=1, pad=k // 2)
        assert out.shape == (1, 1, H, W)


@pytest.mark.parametrize("k, stride, pad", [(3, 2, 1), (3, 1, 0), (3, 1, 2), (1, 1, 1),
                                            (2, 1, 1), (4, 1, 2)])
def test_conv2d_rejects_unsupported_geometry(k, stride, pad):
    x, w, b = np.ones((1, 1, 6, 6)), np.ones((1, 1, k, k)), np.zeros(1)
    tape = Tape()
    for call in (lambda: conv2d(x, w, b, stride=stride, pad=pad),
                 lambda: tape.conv2d(tape.const(x), tape.param("w", w), tape.const(b),
                                     stride=stride, pad=pad)):
        with pytest.raises(ContractError) as exc:
            call()
        assert f"stride={stride}" in str(exc.value) and f"pad={pad}" in str(exc.value)
        assert f"{k}x{k}" in str(exc.value)


# the forward primitives the backbone's layer sequence runs at inference

def test_layer_forward_relu():
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_layer_forward_gap_constant():
    out = gap(np.full((1, 1, 2, 2), 7.5))
    np.testing.assert_array_equal(out, [[7.5]])


def test_layer_forward_maxpool():
    out = maxpool2(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    assert out.reshape(-1)[0] == 4.0


def test_layer_forward_dense_mismatch():
    with pytest.raises(ShapeError):
        dense(np.ones((1, 3)), np.ones((4, 2)), np.zeros(2))


def test_backward_linear_in_x():
    tape = Tape()
    w = tape.param("w", np.ones((1, 1)))
    x = tape.const(np.full((1, 1), 3.0))
    out = tape.dense(x, w, tape.const(np.zeros(1)))
    grads = tape.backward(out, np.ones((1, 1)))
    assert grads["w"][0, 0] == 3.0


def test_backward_dead_relu_unit():
    tape = Tape()
    w = tape.param("w", np.array([-1.0]))
    out = tape.relu(w)
    grads = tape.backward(out, np.ones(1))
    assert grads["w"][0] == 0.0


def test_backward_seed_linearity():
    # gradient is linear in the seed: backward(g1 + g2) == backward(g1) + backward(g2),
    # each sweep on its own tape of the same op
    rng = np.random.default_rng(3)
    w, x = rng.normal(size=(3, 2)), rng.normal(size=(4, 3))
    g1 = rng.normal(size=(4, 2))
    g2 = rng.normal(size=(4, 2))

    def grads(seed_grad):
        tape = Tape()
        out = tape.dense(tape.const(x), tape.param("w", w), tape.param("b", np.zeros(2)))
        return tape.backward(out, seed_grad)

    lhs = grads(g1 + g2)
    a = grads(g1)
    b = grads(g2)
    for name in lhs:
        np.testing.assert_allclose(lhs[name], a[name] + b[name], atol=1e-12)


def test_maxpool_tie_gradient_goes_to_first_index():
    tape = Tape()
    x = tape.param("x", np.full((1, 1, 2, 2), 5.0))  # all four tie
    out = tape.maxpool2(x)
    grads = tape.backward(out, np.ones((1, 1, 1, 1)))
    np.testing.assert_array_equal(grads["x"].reshape(2, 2), [[1.0, 0.0], [0.0, 0.0]])


def test_unused_parameter_gets_zero_gradient():
    tape = Tape()
    w = tape.param("w", np.ones(2))
    unused = tape.param("unused", np.ones(3))
    out = tape.relu(w)
    grads = tape.backward(out, np.ones(2))
    np.testing.assert_array_equal(grads["unused"], np.zeros(3))


def test_a_tape_is_freed_by_reference_counting():
    # a VJP that held its tape would make a cycle, and each training step's
    # arrays would stay alive until the cycle collector happened to run
    cfg = BackboneConfig(input_size=(8, 8, 1), conv_blocks=(2, 3), fc_width=4,
                         num_classes=3, attention_enabled=True)
    gc.disable()
    try:
        tape = Tape()
        logits = forward_on_tape(build_model(cfg), tape, np.ones((2, 1, 8, 8)))
        grads = tape.backward(logits, np.ones((2, 3)))
        alive = weakref.ref(tape)
        del tape, logits, grads
        assert alive() is None
    finally:
        gc.enable()


def _owner(array):
    """The array that owns `array`'s memory, so a dead weakref means freed memory."""
    while array.base is not None:
        array = array.base
    return array


def _closed_over(tape):
    """Weak references to the memory of every array a VJP on `tape` closes
    over, and the functions it closes over in turn."""
    fns = [fn for vjps in tape._vjps for _, fn in vjps]
    seen, refs = set(), {}
    while fns:
        fn = fns.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                owner = _owner(value)
                refs[id(owner)] = weakref.ref(owner)
            elif callable(value) and hasattr(value, "__closure__"):
                fns.append(value)
    return list(refs.values())


def test_backward_frees_the_graph_as_it_passes(monkeypatch):
    # the tape holds what its VJPs close over: no im2col columns, and no conv
    # or pool output, whose readers (maxpool2, relu) keep only masks; the sweep
    # then frees that too, all but the root and the parameters
    import weckd.tensor
    cfg = BackboneConfig(input_size=(8, 8, 1), conv_blocks=(2, 3), fc_width=4,
                         num_classes=3, attention_enabled=True)
    model = build_model(cfg)
    cols, outputs = [], []
    im2col = weckd.tensor._im2col

    def recording_im2col(*args):
        out = im2col(*args)
        cols.append(weakref.ref(_owner(out)))
        return out

    monkeypatch.setattr(weckd.tensor, "_im2col", recording_im2col)
    for op in ("conv2d", "maxpool2"):
        def recording_op(self, *args, op=getattr(Tape, op), **kwargs):
            node = op(self, *args, **kwargs)
            outputs.append(weakref.ref(_owner(node.value)))
            return node

        monkeypatch.setattr(Tape, op, recording_op)
    gc.disable()
    try:
        tape = Tape()
        logits = forward_on_tape(model, tape, np.ones((2, 1, 8, 8)))
        forward_cols = len(cols)  # one array per conv and image block
        assert forward_cols >= 2 and all(ref() is None for ref in cols)
        assert len(outputs) == 4 and all(ref() is None for ref in outputs)
        params = {id(value) for value in model.params.values()}
        kept = [ref for ref in _closed_over(tape) if id(ref()) not in params]
        tape.backward(logits, np.ones((2, 3)))
        # the tape is still alive, but nothing it recorded for the sweep is;
        # the weight gradient rebuilt each conv's columns, which went with it
        assert len(cols) == 2 * forward_cols and all(ref() is None for ref in cols)
        assert kept and all(ref() is None for ref in kept)
        assert all(vjps == () for vjps in tape._vjps)
        assert logits.value.shape == (2, 3)
        for name, value in model.params.items():
            assert tape._params[name].value is value
    finally:
        gc.enable()


def test_a_node_with_two_readers_gets_the_gradient_of_both():
    # relu and then the gate read one conv output
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2, 4, 4))
    seed = rng.normal(size=(2, 3, 4, 4))
    params = {"w": rng.normal(size=(3, 2, 3, 3)), "b": rng.normal(size=3),
              "w_att": rng.normal(size=3), "b_att": np.array(0.1)}

    def record(p):
        tape = Tape()
        nodes = {name: tape.param(name, value) for name, value in p.items()}
        h = tape.conv2d(tape.const(x), nodes["w"], nodes["b"], pad=1)
        activated = tape.relu(h)
        scores = tape.attention_scores(h, nodes["w_att"], nodes["b_att"])
        return tape, tape.scale_spatial(activated, scores)

    def grad(p):
        tape, out = record(p)
        return tape.backward(out, seed)

    err = finite_diff_check(lambda p: (record(p)[1].value * seed).sum(), grad, params)
    assert err < 1e-6


def _kept_bytes(cfg, batch, itemsize):
    """Bytes of the arrays that the VJPs of a tape over `cfg` close over,
    besides the parameters and the input image, and of the logits, which the
    caller holds. Per conv block: maxpool2's two masks, relu's mask, and the
    relu output, which the next conv or the gate reads. The gate's scores,
    kept by scale_spatial, and their sigmoid derivative, by attention_scores.
    The GAP output, read by the first FC, and the FC relu's mask and output,
    the second FC's input. Without the gate the last block's relu output goes:
    its one reader, GAP, keeps only its shape."""
    (h, w, _), total = cfg.input_size, 0
    for f in cfg.conv_blocks:
        pooled = batch * f * (h // 2) * (w // 2)
        total += batch * f * h * (w // 2) + pooled + pooled + pooled * itemsize
        h, w = h // 2, w // 2
    if cfg.attention_enabled:
        total += 2 * batch * h * w * itemsize
    else:
        total -= pooled * itemsize
    total += (batch * cfg.conv_blocks[-1] + batch * cfg.fc_width
              + batch * cfg.num_classes) * itemsize + batch * cfg.fc_width
    return total


@pytest.mark.parametrize("attention", [False, True])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_tape_holds_what_its_sweep_reads_and_a_step_peaks_below_two_column_buffers(
        cpus, attention, monkeypatch):
    # the default backbone at B=64, f64: the tape holds only what its VJPs
    # close over, so after the forward it holds its masks and kept activations
    # plus Python objects; a whole step adds at most the widest conv's columns
    # and as much again for what rides with them (the GEMM terms, the conv
    # output and its gradient)
    import weckd.tensor
    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: cpus)
    cfg = BackboneConfig(input_size=(32, 32, 1), num_classes=4, attention_enabled=attention)
    model = build_model(cfg)
    rng = np.random.default_rng(0)
    x, y = rng.random((64, 1, 32, 32)), rng.integers(0, 4, 64)
    kept = _kept_bytes(cfg, 64, x.itemsize)
    h, w, c = cfg.input_size
    widest = 0
    for f in cfg.conv_blocks:
        widest = max(widest, 64 * c * 9 * h * w * x.itemsize)
        h, w, c = h // 2, w // 2, f

    def step():
        tape = Tape()
        logits = forward_on_tape(model, tape, x)
        held = tracemalloc.get_traced_memory()[0]
        z = logits.value
        tape.backward(logits, hybrid_loss_grad(z, z, y, 0.5, 4.0))
        return held

    step()  # warm-up: the image-block pool and numpy's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = step() - base
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kept <= held <= kept + (256 << 10), (held, kept)
    assert peak <= kept + 2 * widest, (peak, kept, widest)


@pytest.mark.parametrize("input_kind", ["const", "param"])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_weight_gradient_over_rebuilt_columns_keeps_the_kept_columns_bits(
        dtype, batch, cpus, input_kind, monkeypatch):
    # with the input a parameter the sweep also makes the input gradient
    import weckd.tensor
    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: cpus)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 5, 9, 7)).astype(dtype)
    w = rng.normal(size=(6, 5, 3, 3)).astype(dtype)
    g = rng.normal(size=(batch, 6, 9, 7)).astype(dtype)
    tape = Tape()
    xn = tape.const(x) if input_kind == "const" else tape.param("x", x)
    out = tape.conv2d(xn, tape.param("w", w), tape.param("b", np.zeros(6, dtype)), pad=1)
    grad = tape.backward(out, g)["w"]
    assert grad.dtype == dtype
    assert np.array_equal(grad, kept_columns_weight_grad(x, w, g))


def test_a_tape_is_swept_once():
    tape = Tape()
    out = tape.relu(tape.param("x", np.array([1.0, -1.0])))
    with pytest.raises(ShapeError):
        tape.backward(out, np.ones(3))  # refused before the sweep: the tape is intact
    np.testing.assert_array_equal(tape.backward(out, np.ones(2))["x"], [1.0, 0.0])
    with pytest.raises(ContractError, match="swept once"):
        tape.backward(out, np.ones(2))


def test_an_op_on_a_node_the_sweep_freed_names_the_one_sweep_contract():
    tape = Tape()
    h = tape.relu(tape.param("x", np.array([[1.0, -1.0]])))
    out = tape.dense(h, tape.param("w", np.ones((2, 1))), tape.param("b", np.zeros(1)))
    tape.backward(out, np.ones((1, 1)))
    with pytest.raises(ContractError, match="swept once"):
        tape.relu(h)


def test_sgd_step_plain():
    params, vel = sgd_step({"w": np.array([1.0])}, {"w": np.array([0.5])}, lr=0.1)
    assert params["w"][0] == pytest.approx(0.95)


def test_sgd_step_zero_gradient_is_identity():
    params, _ = sgd_step({"w": np.array([1.3])}, {"w": np.array([0.0])}, lr=0.1)
    assert params["w"][0] == 1.3


def test_sgd_step_momentum_unrolled():
    params = {"w": np.array([0.0])}
    vel = None
    for _ in range(2):
        params, vel = sgd_step(params, {"w": np.array([1.0])}, lr=0.1,
                               momentum=0.9, velocity=vel)
    assert params["w"][0] == pytest.approx(-0.29)


def test_sgd_step_rejects_nonfinite_gradient():
    with pytest.raises(NumericError):
        sgd_step({"w": np.array([1.0])}, {"w": np.array([np.nan])}, lr=0.1)


@pytest.mark.parametrize("lr", [0.0, float("nan"), float("inf")])
def test_sgd_step_refuses_a_learning_rate_outside_zero_to_inf(lr):
    with pytest.raises(ContractError, match=f"got {lr}"):
        sgd_step({"w": np.array([1.0])}, {"w": np.array([0.5])}, lr=lr)


def test_finite_diff_quadratic_is_exact():
    def fwd(p):
        return 0.5 * float(p["w"][0]) ** 2

    def grad(p):
        return {"w": np.array([float(p["w"][0])])}

    err = finite_diff_check(fwd, grad, {"w": np.array([2.0])}, eps=1e-5)
    assert err < 1e-8


def test_finite_diff_constant_loss():
    err = finite_diff_check(lambda p: 0.0,
                            lambda p: {"w": np.zeros(3)},
                            {"w": np.ones(3)}, eps=1e-5)
    assert err == 0.0


def test_finite_diff_eps_contract():
    with pytest.raises(ContractError):
        finite_diff_check(lambda p: 0.0, lambda p: {}, {}, eps=1e-2)


def _backbone_loss_fns(attention, seed):
    cfg = BackboneConfig(input_size=(8, 8, 1), conv_blocks=(4, 6), fc_width=8,
                         num_classes=3, attention_enabled=attention, init_seed=seed)
    model = build_model(cfg)
    rng = np.random.default_rng(seed)
    batch = rng.uniform(0, 1, size=(2, 1, 8, 8))
    y = rng.integers(0, 3, 2)

    # the stage-1 training loss: the hybrid loss at alpha=1 is plain softmax CE
    def fwd(params):
        from weckd.backbone import Model
        z = forward_on_tape(Model(cfg, params), Tape(), batch).value
        return hybrid_loss(z, z, y, 1.0, 1.0)[0]

    def grad(params):
        from weckd.backbone import Model
        tape = Tape()
        logits = forward_on_tape(Model(cfg, params), tape, batch)
        z = logits.value
        return tape.backward(logits, hybrid_loss_grad(z, z, y, 1.0, 1.0))

    return fwd, grad, model


@pytest.mark.parametrize("attention", [False, True])
def test_backbone_gradients_match_finite_differences(attention):
    fwd, grad, model = _backbone_loss_fns(attention, seed=0)
    err = finite_diff_check(fwd, grad, model.params, eps=1e-5)
    assert err < 1e-4


def test_backbone_gradients_deterministic():
    _, grad, model = _backbone_loss_fns(True, seed=1)
    g1 = grad(model.params)
    g2 = grad(model.params)
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])


# -- kernels against naive loops -----------------------------------------------

# the geometries conv2d supports: odd k, stride 1, pad = k // 2
GEOMETRIES = [(k // 2, 1) for k in (1, 3, 5)]
# odd and even sizes, and sizes below the 5x5 kernel
SHAPES = [(7, 5), (4, 6), (2, 3), (1, 1)]


def _naive_conv2d(x, w, b):
    B, C, H, W = x.shape
    F, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((B, F, H, W))
    for n in range(B):
        for f in range(F):
            for i in range(H):
                for j in range(W):
                    out[n, f, i, j] = (xp[n, :, i:i + k, j:j + k] * w[f]).sum() + b[f]
    return out


def _naive_maxpool2(x):
    B, C, H, W = x.shape
    out = np.empty((B, C, H // 2, W // 2))
    for i in range(H // 2):
        for j in range(W // 2):
            out[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max(axis=(2, 3))
    return out


def _naive_maxpool2_grad(x, g):
    # each window's gradient goes to np.argmax of the window: the first max
    # in row-major order; the dropped odd row and column get 0
    B, C, H2, W2 = g.shape
    want = np.zeros_like(x)
    for n in range(B):
        for c in range(C):
            for i in range(H2):
                for j in range(W2):
                    win = x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    r, s = np.unravel_index(np.argmax(win), (2, 2))
                    want[n, c, 2 * i + r, 2 * j + s] = g[n, c, i, j]
    return want


@pytest.mark.parametrize("pad, stride", GEOMETRIES)
def test_conv2d_matches_naive_loop_odd_sizes(pad, stride):
    rng = np.random.default_rng(pad)
    k = 2 * pad + 1
    for H, W in SHAPES:
        x = rng.normal(size=(2, 3, H, W))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        np.testing.assert_allclose(conv2d(x, w, b, stride=stride, pad=pad),
                                   _naive_conv2d(x, w, b), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_im2col_equals_sliding_windows_of_the_padded_input(k, dtype):
    rng = np.random.default_rng(k)
    p = k // 2
    for H, W in SHAPES:
        x = rng.normal(size=(2, 3, H, W)).astype(dtype)
        windows = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), (k, k),
                                      axis=(2, 3))  # (B, C, H, W, k, k)
        want = windows.transpose(0, 1, 4, 5, 2, 3).reshape(2, 3 * k * k, H * W)
        cols = _im2col(x, k)
        assert cols.dtype == dtype and np.array_equal(cols, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_col2im_equals_naive_scatter_add(k, dtype):
    rng = np.random.default_rng(10 + k)
    p = k // 2
    for H, W in SHAPES:
        d = rng.normal(size=(2, 3 * k * k, H * W)).astype(dtype)
        want = np.zeros((2, 3, H + 2 * p, W + 2 * p), dtype=dtype)
        patches = d.reshape(2, 3, k, k, H, W)
        for i in range(k):
            for j in range(k):
                want[:, :, i:i + H, j:j + W] += patches[:, :, i, j]
        head = p + p * W
        dxf = np.zeros((2, 3, H * W + 2 * head), dtype=dtype)
        _col2im(d, dxf, W, k)
        dx = dxf[:, :, head:head + H * W].reshape(2, 3, H, W)
        assert dx.dtype == dtype and np.array_equal(dx, want[:, :, p:p + H, p:p + W])


@pytest.mark.parametrize("pad, stride", GEOMETRIES)
def test_taped_conv2d_gradients_match_finite_differences(pad, stride):
    rng = np.random.default_rng(7 + pad)
    k = 2 * pad + 1
    for H, W in SHAPES[:3]:
        params = {"x": rng.normal(size=(2, 2, H, W)), "w": rng.normal(size=(3, 2, k, k)),
                  "b": rng.normal(size=3)}
        weights = rng.normal(size=(2, 3, H, W))

        def fwd(p):
            return float((conv2d(p["x"], p["w"], p["b"], stride=stride, pad=pad) * weights).sum())

        def grad(p):
            tape = Tape()
            out = tape.conv2d(*(tape.param(name, p[name]) for name in ("x", "w", "b")),
                              stride=stride, pad=pad)
            return tape.backward(out, weights)

        assert finite_diff_check(fwd, grad, params, eps=1e-5) < 1e-6


def test_maxpool_forward_and_backward_match_naive_loop_odd_sizes():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 7, 5))
    np.testing.assert_array_equal(maxpool2(x), _naive_maxpool2(x))
    g = rng.normal(size=(2, 3, 3, 2))
    tape = Tape()
    grads = tape.backward(tape.maxpool2(tape.param("x", x)), g)
    np.testing.assert_array_equal(grads["x"], _naive_maxpool2_grad(x, g))


def test_maxpool_first_max_wins_on_every_tie_pattern():
    # one row of 2x2 windows holding all 16 {0, 1} patterns; a (0,1)/(1,0) tie
    # tells columns-first pairing from rows-first
    windows = np.array(list(itertools.product([0.0, 1.0], repeat=4))).reshape(16, 2, 2)
    x = windows.transpose(1, 0, 2).reshape(1, 1, 2, 32)
    # the same windows with an odd trailing row and column that beat every window
    odd = np.pad(x, ((0, 0), (0, 0), (0, 1), (0, 1)), constant_values=2.0)
    g = np.arange(1.0, 17.0).reshape(1, 1, 1, 16)
    for inp in (x, odd):
        np.testing.assert_array_equal(maxpool2(inp), _naive_maxpool2(inp))
        tape = Tape()
        grads = tape.backward(tape.maxpool2(tape.param("x", inp)), g)
        np.testing.assert_array_equal(grads["x"], _naive_maxpool2_grad(inp, g))


def test_backward_never_calls_a_constant_leafs_vjp(monkeypatch):
    import weckd.tensor
    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: 1)  # one image block per conv
    cfg = BackboneConfig(input_size=(8, 8, 1), conv_blocks=(2, 3, 4), fc_width=4,
                         num_classes=3, attention_enabled=True)
    model = build_model(cfg)
    tape = Tape()
    logits = forward_on_tape(model, tape, np.random.default_rng(0).random((2, 1, 8, 8)))
    col2im = Counter()
    real = weckd.tensor._col2im

    def counting_col2im(*args):
        col2im["calls"] += 1
        return real(*args)

    monkeypatch.setattr(weckd.tensor, "_col2im", counting_col2im)
    tape.backward(logits, np.ones((2, 3)))
    assert col2im["calls"] == 2  # blocks 1 and 2; block 0's input is the image


def test_backward_never_rebuilds_the_columns_of_a_constant_kernel(monkeypatch):
    import weckd.tensor
    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: 1)  # one image block
    rng = np.random.default_rng(0)
    tape = Tape()
    out = tape.conv2d(tape.param("x", rng.normal(size=(2, 3, 6, 5))),
                      tape.const(rng.normal(size=(4, 3, 3, 3))), tape.param("b", np.zeros(4)),
                      pad=1)
    im2col = Counter()
    real = weckd.tensor._im2col

    def counting_im2col(*args):
        im2col["calls"] += 1
        return real(*args)

    monkeypatch.setattr(weckd.tensor, "_im2col", counting_im2col)
    grads = tape.backward(out, rng.normal(size=(2, 4, 6, 5)))
    assert im2col["calls"] == 0
    assert sorted(grads) == ["b", "x"]
