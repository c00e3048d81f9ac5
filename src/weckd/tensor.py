"""Dense tensor ops with a taped reverse-mode backward pass.

The dtype follows the inputs: every op computes and allocates in its input's
dtype, casting weights to it, so float32 weights with a float32 batch run at
float32 throughout. Float64 is the gradient oracle: the finite-difference
checks and training run at float64.

The op set is deliberately closed: exactly the primitives the classifier
backbone needs (conv2d, relu, 2x2 maxpool, dense, GAP, and a
spatial attention gate with its per-location scaling). The pure functions
and the `Tape` methods share names, so the backbone's one layer sequence
runs on either. No general computation graph.

conv2d has one geometry: odd square kernels, stride 1, same padding. That
lets im2col copy each shifted window of a flattened, row-padded plane as one
contiguous run, and col2im add it back the same way. maxpool2 takes the max
of column pairs, then of row pairs, and the tape keeps one first-wins mask
per pass. The copies feed the same GEMMs in the same order,
so no result depends on these layouts.

conv2d and maxpool2 are per-image ops. On a tape they run their forward and
their VJPs over contiguous image blocks, one per CPU, each block writing its
images' slice of the batch's arrays; each conv gradient is its own block
pass, and the weight gradient's per-image products are summed once over the
batch. No image's values depend on its block, so the results are the same
bits for any CPU count. Every other tape op runs on the calling thread over
the whole batch. The pure functions run on whatever thread calls them:
`backbone.forward` gives each CPU a run of whole row tiles through `_on_blocks`.

A tape holds what its VJPs close over, and nothing else. It records each
op's VJPs, not its output: a value lives in the node its caller holds and in
any VJP that closed over it, so reference counting frees it once neither
needs it. The conv weight gradient rebuilds its im2col columns from the conv
input, which its VJP holds anyway, so no columns outlive their forward, and
a constant kernel gets no column rebuild.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "ShapeError",
    "ContractError",
    "NumericError",
    "Tape",
    "conv2d",
    "attention_scores",
    "scale_spatial",
    "sgd_step",
]


class ShapeError(ValueError):
    """Tensor dimensions incompatible with the requested operation."""


class ContractError(RuntimeError):
    """An operation was called outside its contract."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where finite math was required."""


# ---------------------------------------------------------------------------
# pure forward primitives (numpy in, numpy out)
# ---------------------------------------------------------------------------

def _im2col(x, k):
    # x: (B, C, H, W) -> cols (B, C*k*k, H*W) for a stride-1 same-padded k x k
    # kernel, rows in (c, i, j) order, so one matmul with the (F, C*k*k) kernel
    # matrix gives (B, F, H*W) = NCHW. Each plane is padded only above and
    # below and flattened between p guard zeros, so shift (i, j) is the one
    # contiguous run xf[b, c, i*W + j:][:H*W]. All k*k runs are copied in one
    # pass that writes cols in memory order; the entries of a run that
    # wrapped round a row edge are then zeroed.
    B, C, H, W = x.shape
    p = k // 2
    head = p + p * W
    xf = np.empty((B, C, H * W + 2 * head), dtype=x.dtype)
    xf[:, :, :head] = 0
    xf[:, :, head + H * W:] = 0
    xf[:, :, head:head + H * W] = x.reshape(B, C, H * W)
    step = xf.itemsize
    # the last run ends at xf[b, c, (k-1)*W + (k-1) + H*W - 1], the plane's last element
    runs = as_strided(xf, (B, C, k, k, H * W), xf.strides[:2] + (W * step, step, step),
                      writeable=False)
    cols = runs.copy()
    _zero_wrapped(cols, H, W)
    return cols.reshape(B, C * k * k, H * W)


def _zero_wrapped(cols, H, W):
    """Zero the entries of (B, C, k, k, H*W) shifted runs that wrapped a row
    edge: the first p - j columns of each row for j < p, the last j - p for j > p."""
    B, C, k = cols.shape[:3]
    p = k // 2
    grid = cols.reshape(B, C, k, k, H, W)
    for j in range(k):
        if j < p:
            grid[:, :, :, j, :, :p - j] = 0
        elif j > p:
            grid[:, :, :, j, :, p - j:] = 0


def _col2im(dcols, dxf, W, k):
    # the adjoint of _im2col: adds dcols (B, C*k*k, H*W) onto dxf, the B images'
    # zeroed flat padded planes (B, C, H*W + 2*(p + p*W)) whose middle H*W
    # entries are dx. The wrapped entries of dcols are zeroed in place (it is
    # the caller's own temporary), then each shift's run is added back in
    # (i, j) order. The extra terms are +0.0 and the accumulator starts at
    # +0.0, so they change no bits.
    B, C = dxf.shape[:2]
    HW = dcols.shape[2]
    d = dcols.reshape(B, C, k, k, HW)
    _zero_wrapped(d, HW // W, W)
    for i in range(k):
        for j in range(k):
            dxf[:, :, i * W + j:i * W + j + HW] += d[:, :, i, j]


def _conv2d_checked(x, w, b, stride, pad):
    """conv2d's arguments as arrays of x's dtype, once its contract holds."""
    x = np.asarray(x)
    w = np.asarray(w, dtype=x.dtype)
    b = np.asarray(b, dtype=x.dtype)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} has {x.shape[1]} channels, "
            f"kernel {w.shape} expects {w.shape[1]}"
        )
    k = w.shape[2]
    if k != w.shape[3]:
        raise ShapeError(f"conv2d kernels must be square, got {w.shape}")
    if stride != 1 or k % 2 == 0 or pad != k // 2:
        raise ContractError(
            f"conv2d supports only stride 1 with same padding (odd k, pad = k // 2), "
            f"got stride={stride}, pad={pad} for a {k}x{k} kernel"
        )
    return x, w, b


def _conv_images(x, w, b, out):
    """Writes the conv of images x (B, C, H, W) into out (B, F, H*W), one GEMM
    per image with the (F, C*k*k) kernel matrix."""
    F, k = w.shape[0], w.shape[2]
    np.matmul(w.reshape(F, -1), _im2col(x, k), out=out)
    out += b.reshape(F, 1)


def conv2d(x, w, b, stride=1, pad=0):
    """Stride-1 same-padded cross-correlation of x (B,C,H,W) with odd kernels
    w (F,C,k,k) plus bias; `pad` must be k // 2."""
    x, w, b = _conv2d_checked(x, w, b, stride, pad)
    B, _, H, W = x.shape
    out = np.empty((B, w.shape[0], H * W), dtype=x.dtype)
    _conv_images(x, w, b, out)
    return out.reshape(B, -1, H, W)


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    # stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _col_pairs(x):
    """The left and right columns of x's 2x2 windows, with odd trailing rows
    and columns dropped: two (B, C, 2*H2, W2) views, each one flat run of
    stride 2 when H and W are even."""
    B, C, H, W = x.shape
    H2, W2 = H // 2, W // 2
    if H2 == 0 or W2 == 0:
        raise ShapeError(f"maxpool2 needs spatial size >= 2, got {x.shape}")
    v = x[:, :, :2 * H2, :2 * W2].reshape(B, C, 2 * H2, W2, 2)
    return v[..., 0], v[..., 1]


def _row_pairs(a):
    """The top and bottom rows of each window of a (B, C, 2*H2, W2) array."""
    B, C, H, W2 = a.shape
    v = a.reshape(B, C, H // 2, 2, W2)
    return v[:, :, :, 0], v[:, :, :, 1]


def maxpool2(x):
    """2x2 max pooling, stride 2; odd trailing rows/columns are dropped.

    Columns first, then rows: max(max(v00, v01), max(v10, v11))."""
    return np.maximum(*_row_pairs(np.maximum(*_col_pairs(x))))


def dense(x, w, b):
    x = np.asarray(x)
    w = np.asarray(w, dtype=x.dtype)
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"dense inner-dim mismatch: input {x.shape} vs weight {w.shape}")
    return x @ w + np.asarray(b, dtype=x.dtype)


def gap(x):
    if x.ndim != 4:
        raise ShapeError(f"gap expects (B,C,H,W), got {x.shape}")
    return x.mean(axis=(2, 3))


def attention_scores(f_base, w_att, b_att):
    """Per-location sigmoid gate: scores (B,H,W) from features (B,C,H,W)."""
    f_base = np.asarray(f_base)
    w = np.asarray(w_att, dtype=f_base.dtype).reshape(-1)
    if f_base.shape[1] != w.shape[0]:
        raise ShapeError(
            f"attention weight length {w.shape[0]} does not match channel count {f_base.shape[1]}"
        )
    pre = np.einsum("bchw,c->bhw", f_base, w) + float(np.asarray(b_att).reshape(()))
    return sigmoid(pre)


def scale_spatial(f, a):
    """Multiply features (B,C,H,W) by a per-location map (B,H,W)."""
    return f * a[:, None, :, :]


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("value", "index")

    def __init__(self, value, index=None):
        self.value = value
        self.index = index  # position on the tape; None for a constant


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _image_blocks(n):
    """(start, stop) of contiguous blocks covering range(n) in order: one per
    CPU and none empty, their sizes at most one apart."""
    k = max(1, min(_cpus(), n))
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


@functools.cache
def _pool():
    """The threads that run every image block but the caller's own, started on first use."""
    return ThreadPoolExecutor(max_workers=max(1, _cpus() - 1), thread_name_prefix="weckd-images")


def _on_blocks(fn, blocks):
    """[fn(*args) for args in blocks]: the last block on this thread, the others on
    `_pool`. Returns or raises only after every block has finished; a block's
    exception reaches the caller with its own type."""
    futures = [_pool().submit(fn, *args) for args in blocks[:-1]]
    try:
        last = fn(*blocks[-1])
    finally:
        wait(futures)
    return [f.result() for f in futures] + [last]


class Tape:
    """Records the forward pass of the closed layer set for one backward sweep.

    The tape holds what its VJPs close over: per node, in execution order, its
    VJPs, each with its parent's index, so the list itself is the topological
    order and backward walks it once in reverse. A constant parent's VJP is
    not kept, as nothing reads its gradient.
    """

    def __init__(self):
        self._vjps = []  # per node: ((parent index, fn: grad_out -> grad_parent), ...)
        self._params = {}  # name -> node
        self._swept = False

    def _add(self, value, vjps=()):
        if self._swept:
            raise ContractError("this tape has been swept once; record a new tape")
        self._vjps.append(tuple((p.index, fn) for p, fn in vjps if p.index is not None))
        return _Node(value, len(self._vjps) - 1)

    def param(self, name, value):
        if name in self._params:
            raise ContractError(f"parameter {name!r} already on tape")
        node = self._params[name] = self._add(np.asarray(value))
        return node

    def const(self, value):
        return _Node(np.asarray(value))

    # -- recorded ops -------------------------------------------------------

    def conv2d(self, x, w, b, stride=1, pad=0):
        xv, wv, bv = _conv2d_checked(x.value, w.value, b.value, stride, pad)
        (B, C, H, W), (F, _, k, _) = xv.shape, wv.shape
        blocks = _image_blocks(B)
        out = np.empty((B, F, H * W), dtype=xv.dtype)
        _on_blocks(lambda lo, hi: _conv_images(xv[lo:hi], wv, bv, out[lo:hi]), blocks)
        w2 = wv.reshape(F, -1)

        # each gradient is its own pass over the image blocks, reading only g
        def vjp_x(g):
            # each block adds its images' column gradients back onto their padded planes
            g3, head = g.reshape(B, F, -1), k // 2 * (1 + W)
            dxf = np.zeros((B, C, H * W + 2 * head), dtype=g.dtype)
            _on_blocks(lambda lo, hi: _col2im(np.matmul(w2.T, g3[lo:hi]), dxf[lo:hi], W, k),
                       blocks)
            return dxf[:, :, head:head + H * W].reshape(B, C, H, W)

        def vjp_w(g):
            # each block takes its per-image (F, H*W) @ (H*W, C*k*k) terms over
            # columns rebuilt from its images; the terms are summed once over the batch
            g3 = g.reshape(B, F, -1)
            terms = np.empty((B, F, C * k * k), dtype=g.dtype)

            def block(lo, hi):
                np.matmul(g3[lo:hi], _im2col(xv[lo:hi], k).transpose(0, 2, 1), out=terms[lo:hi])

            _on_blocks(block, blocks)
            return terms.sum(axis=0).reshape(wv.shape)

        def vjp_b(g):
            return g.sum(axis=(0, 2, 3))

        return self._add(out.reshape(B, F, H, W), ((x, vjp_x), (w, vjp_w), (b, vjp_b)))

    def relu(self, x):
        mask = x.value > 0
        return self._add(x.value * mask, ((x, lambda g: g * mask),))

    def maxpool2(self, x):
        xv = x.value
        shape, dtype = xv.shape, xv.dtype
        B, C, H, W = shape
        blocks = _image_blocks(B)
        out = np.empty((B, C, H // 2, W // 2), dtype=dtype)
        # the first of each tied pair wins: with columns paired before rows
        # that is the window's first max in row-major order
        first_col = np.empty((B, C, H // 2 * 2, W // 2), dtype=bool)
        first_row = np.empty(out.shape, dtype=bool)

        def forward(lo, hi):
            left, right = _col_pairs(xv[lo:hi])
            np.greater_equal(left, right, out=first_col[lo:hi])
            top, bottom = _row_pairs(np.maximum(left, right))
            np.greater_equal(top, bottom, out=first_row[lo:hi])
            np.maximum(top, bottom, out=out[lo:hi])

        _on_blocks(forward, blocks)

        def vjp(g):
            dx = (np.zeros if H % 2 or W % 2 else np.empty)(shape, dtype=dtype)

            def backward(lo, hi):
                dleft, dright = _col_pairs(dx[lo:hi])
                # the right columns first hold the gradient of the column maxima,
                # then, after the left columns have taken their share, their own
                dtop, dbottom = _row_pairs(dright)
                np.multiply(g[lo:hi], first_row[lo:hi], out=dtop)
                np.multiply(g[lo:hi], ~first_row[lo:hi], out=dbottom)
                np.multiply(dright, first_col[lo:hi], out=dleft)
                np.multiply(dright, ~first_col[lo:hi], out=dright)

            _on_blocks(backward, blocks)
            return dx

        return self._add(out, ((x, vjp),))

    def dense(self, x, w, b):
        out = dense(x.value, w.value, b.value)
        xv, wv = x.value, w.value
        return self._add(out, (
            (x, lambda g: g @ wv.T),
            (w, lambda g: xv.T @ g),
            (b, lambda g: g.sum(axis=0)),
        ))

    def gap(self, x):
        out = gap(x.value)
        B, C, H, W = x.value.shape
        scale = 1.0 / (H * W)
        return self._add(out, (
            (x, lambda g: np.broadcast_to((g * scale)[:, :, None, None], (B, C, H, W)).copy()),
        ))

    def attention_scores(self, f, w, b):
        fv = f.value
        wv = np.asarray(w.value).reshape(-1)
        wshape, bshape = np.shape(w.value), np.shape(b.value)
        out = attention_scores(fv, wv, b.value)
        ds = out * (1.0 - out)  # sigmoid'

        def vjp_f(g):
            return np.einsum("bhw,c->bchw", g * ds, wv)

        def vjp_w(g):
            return np.einsum("bhw,bchw->c", g * ds, fv).reshape(wshape)

        def vjp_b(g):
            return np.full(bshape, (g * ds).sum())

        return self._add(out, ((f, vjp_f), (w, vjp_w), (b, vjp_b)))

    def scale_spatial(self, f, a):
        """Multiply features (B,C,H,W) by a per-location map (B,H,W)."""
        fv, av = f.value, a.value
        out = scale_spatial(fv, av)
        return self._add(out, (
            (f, lambda g: g * av[:, None, :, :]),
            (a, lambda g: (g * fv).sum(axis=1)),
        ))

    # -- backward -----------------------------------------------------------

    def backward(self, root, seed_grad):
        """Reverse sweep from `root` seeded with `seed_grad`, the gradient of the
        loss at `root`; returns {param name -> gradient}.

        Parameters not reachable from `root` get zero gradients; constants
        get none, as their VJPs were never kept.

        Each node's VJPs are dropped once they have run, and with them the
        arrays they closed over, so a tape is swept once: a second call, or an
        op recorded after it, raises ContractError.
        """
        if self._swept:
            raise ContractError("this tape has been swept once; record a new tape")
        value = np.asarray(root.value)
        seed_grad = np.asarray(seed_grad, dtype=value.dtype)
        if seed_grad.shape != value.shape:
            raise ShapeError(
                f"seed gradient shape {seed_grad.shape} does not match root shape {value.shape}"
            )
        self._swept = True
        grads = {root.index: seed_grad}
        for i in reversed(range(len(self._vjps))):
            vjps, self._vjps[i] = self._vjps[i], ()
            if not vjps:
                continue  # a parameter, whose gradient stays in `grads`, or an op on constants
            g = grads.pop(i, None)
            if g is None:
                continue
            for parent, fn in vjps:
                contrib = fn(g)
                prev = grads.get(parent)
                grads[parent] = contrib if prev is None else prev + contrib
        return {name: grads[node.index] if node.index in grads else np.zeros_like(node.value)
                for name, node in self._params.items()}


# ---------------------------------------------------------------------------
# optimizer + gradient oracle
# ---------------------------------------------------------------------------

def sgd_step(params, grads, lr, momentum=0.0, velocity=None):
    """One SGD(+momentum) update: v <- m*v + g; p <- p - lr*v.

    Returns (new_params, new_velocity); inputs are not mutated.
    """
    if not 0 < lr < np.inf:
        raise ContractError(f"learning rate must be in (0,inf), got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ContractError(f"momentum must be in [0,1), got {momentum}")
    if velocity is None:
        velocity = {k: np.zeros_like(v) for k, v in params.items()}
    new_params, new_vel = {}, {}
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        v = momentum * velocity[name] + g
        new_vel[name] = v
        new_params[name] = p - lr * v
    return new_params, new_vel

