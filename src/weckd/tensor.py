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

A batch may be recorded as row blocks, one `Tape` each, swept on separate
threads. A row's forward values and input gradients do not depend on its
block: conv GEMMs run per image, the other ops are elementwise, and a
block's dense GEMMs run over the whole batch's row count. Each weight's
gradient is kept as its per-row terms and summed once over the rows of all
blocks joined (`Gradients`), so the gradients are one tape's, bit for bit,
for any split. One tape is the one-block case.
"""
from __future__ import annotations

from collections.abc import MutableMapping
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "ShapeError",
    "ContractError",
    "NumericError",
    "Tape",
    "Gradients",
    "conv2d",
    "attention_scores",
    "scale_spatial",
    "sgd_step",
    "finite_diff_check",
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


def _col2im(dcols, xshape, k):
    # the adjoint of _im2col: dcols (B, C*k*k, H*W) -> dx (B, C, H, W). The
    # wrapped entries of dcols are zeroed in place (it is the caller's own
    # temporary), then each shift's run is added back onto the flat padded
    # plane in (i, j) order. The extra terms are +0.0 and the accumulator
    # starts at +0.0, so they change no bits.
    B, C, H, W = xshape
    p = k // 2
    head = p + p * W
    d = dcols.reshape(B, C, k, k, H * W)
    _zero_wrapped(d, H, W)
    dxf = np.zeros((B, C, H * W + 2 * head), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxf[:, :, i * W + j:i * W + j + H * W] += d[:, :, i, j]
    return dxf[:, :, head:head + H * W].reshape(B, C, H, W)


def _conv2d_forward(x, w, b, stride, pad):
    """Checked conv2d shared by the pure op and the tape: (out, cols)."""
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
    cols = _im2col(x, k)
    F = w.shape[0]
    out = np.matmul(w.reshape(F, -1), cols)
    out += b.reshape(F, 1)
    return out.reshape(x.shape[0], F, x.shape[2], x.shape[3]), cols


def conv2d(x, w, b, stride=1, pad=0):
    """Stride-1 same-padded cross-correlation of x (B,C,H,W) with odd kernels
    w (F,C,k,k) plus bias; `pad` must be k // 2."""
    return _conv2d_forward(x, w, b, stride, pad)[0]


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
    __slots__ = ("value", "vjps", "name")

    def __init__(self, value, vjps=(), name=None):
        self.value = value
        self.vjps = vjps  # tuple of (parent_node, fn: grad_out -> grad_parent)
        self.name = name  # set only for trainable parameters


def _at_rows(fn, a, rows):
    """fn(a) for a row-wise GEMM `fn`, run over `rows` rows: a's rows and then
    zeros. BLAS picks its kernel by the row count, and kernels differ in the
    last bits (OpenBLAS 0.3.31 on AVX-512 takes another kernel for the
    128 -> 64 head's `g @ w.T` at 2-18 rows than at 19 or more), so a row
    block's rows get the bits one tape over the whole batch gives them."""
    pad = (rows or len(a)) - len(a)
    if pad <= 0:
        return fn(a)
    return fn(np.concatenate([a, np.zeros((pad,) + a.shape[1:], a.dtype)]))[:len(a)]


class Tape:
    """Records the forward pass of the closed layer set for one backward sweep.

    Nodes are appended in execution order, so the list itself is the
    topological order; backward walks it once in reverse.

    A tape may record one row block of a batch of `batch_rows` rows. Its
    dense GEMMs then run over that many rows (see `_at_rows`), and its
    `Gradients` join with the other blocks' into the whole batch's.
    """

    def __init__(self, batch_rows=None):
        self._nodes = []
        self._params = {}  # name -> node
        self.batch_rows = batch_rows

    def _add(self, node):
        self._nodes.append(node)
        return node

    def param(self, name, value):
        if name in self._params:
            raise ContractError(f"parameter {name!r} already on tape")
        node = self._add(_Node(np.asarray(value), name=name))
        self._params[name] = node
        return node

    def const(self, value):
        return self._add(_Node(np.asarray(value)))

    # -- recorded ops -------------------------------------------------------

    def conv2d(self, x, w, b, stride=1, pad=0):
        out, cols = _conv2d_forward(x.value, w.value, b.value, stride, pad)
        xshape, wshape = x.value.shape, w.value.shape
        w2 = w.value.reshape(wshape[0], -1)

        def vjp_x(g):
            dcols = np.matmul(w2.T, g.reshape(g.shape[0], wshape[0], -1))
            return _col2im(dcols, xshape, wshape[2])

        def vjp_w(g):
            # per-image (F, H*W) @ (H*W, C*k*k), summed over the batch
            g3 = g.reshape(g.shape[0], wshape[0], -1)
            return _RowTerms((np.matmul(g3, cols.transpose(0, 2, 1)),),
                             lambda m: m.sum(axis=0).reshape(wshape))

        def vjp_b(g):
            return _RowTerms((g,), lambda g: g.sum(axis=(0, 2, 3)))

        return self._add(_Node(out, ((x, vjp_x), (w, vjp_w), (b, vjp_b))))

    def relu(self, x):
        mask = x.value > 0
        return self._add(_Node(x.value * mask, ((x, lambda g: g * mask),)))

    def maxpool2(self, x):
        left, right = _col_pairs(x.value)
        cols = np.maximum(left, right)
        top, bottom = _row_pairs(cols)
        out = np.maximum(top, bottom)
        # the first of each tied pair wins: with columns paired before rows
        # that is the window's first max in row-major order
        first_col, first_row = left >= right, top >= bottom
        shape, dtype = x.value.shape, x.value.dtype
        odd = shape[2] % 2 or shape[3] % 2

        def vjp(g):
            dx = (np.zeros if odd else np.empty)(shape, dtype=dtype)
            dleft, dright = _col_pairs(dx)
            # the right columns first hold the gradient of the column maxima,
            # then, after the left columns have taken their share, their own
            dtop, dbottom = _row_pairs(dright)
            np.multiply(g, first_row, out=dtop)
            np.multiply(g, ~first_row, out=dbottom)
            np.multiply(dright, first_col, out=dleft)
            np.multiply(dright, ~first_col, out=dright)
            return dx

        return self._add(_Node(out, ((x, vjp),)))

    def dense(self, x, w, b):
        # the VJPs must not hold the tape: a cycle would keep every step's
        # arrays alive until the cyclic garbage collector ran
        xv, wv, rows = x.value, w.value, self.batch_rows
        out = _at_rows(lambda x: dense(x, wv, b.value), xv, rows)
        return self._add(_Node(out, (
            (x, lambda g: _at_rows(lambda g: g @ wv.T, g, rows)),
            (w, lambda g: _RowTerms((xv, g), lambda x, g: x.T @ g)),
            (b, lambda g: _RowTerms((g,), lambda g: g.sum(axis=0))),
        )))

    def gap(self, x):
        out = gap(x.value)
        B, C, H, W = x.value.shape
        scale = 1.0 / (H * W)
        return self._add(_Node(out, (
            (x, lambda g: np.broadcast_to((g * scale)[:, :, None, None], (B, C, H, W)).copy()),
        )))

    def attention_scores(self, f, w, b):
        fv = f.value
        wv = np.asarray(w.value).reshape(-1)
        wshape, bshape = np.shape(w.value), np.shape(b.value)
        out = attention_scores(fv, wv, b.value)
        ds = out * (1.0 - out)  # sigmoid'

        def vjp_f(g):
            return np.einsum("bhw,c->bchw", g * ds, wv)

        def vjp_w(g):
            return _RowTerms((g * ds, fv),
                             lambda gs, f: np.einsum("bhw,bchw->c", gs, f).reshape(wshape))

        def vjp_b(g):
            return _RowTerms((g * ds,), lambda gs: np.full(bshape, gs.sum()))

        return self._add(_Node(out, ((f, vjp_f), (w, vjp_w), (b, vjp_b))))

    def scale_spatial(self, f, a):
        """Multiply features (B,C,H,W) by a per-location map (B,H,W)."""
        fv, av = f.value, a.value
        out = scale_spatial(fv, av)
        return self._add(_Node(out, (
            (f, lambda g: g * av[:, None, :, :]),
            (a, lambda g: (g * fv).sum(axis=1)),
        )))

    # -- backward -----------------------------------------------------------

    def backward(self, root, seed_grad=None):
        """Reverse sweep from `root`; returns the {param name -> gradient} `Gradients`.

        With seed_grad omitted, `root` must be a scalar loss (seed 1).
        Parameters not reachable from `root` get zero gradients. Constant
        leaves (`const`) get none: their VJPs are never run.
        """
        value = np.asarray(root.value)
        if seed_grad is None:
            if value.size != 1:
                raise ContractError(
                    f"backward without a seed requires a scalar root, got shape {value.shape}"
                )
            seed_grad = np.ones_like(value)
        seed_grad = np.asarray(seed_grad, dtype=value.dtype)
        if seed_grad.shape != value.shape:
            raise ShapeError(
                f"seed gradient shape {seed_grad.shape} does not match root shape {value.shape}"
            )
        grads = {id(root): seed_grad}
        terms = {name: [] for name in self._params}  # each parameter's, in sweep order
        if root.name is not None:
            terms[root.name].append(seed_grad)
        for node in reversed(self._nodes):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for parent, fn in node.vjps:
                if parent.vjps:  # an op's output: its gradient flows on
                    contrib = fn(g)
                    prev = grads.get(id(parent))
                    grads[id(parent)] = contrib if prev is None else prev + contrib
                elif parent.name is not None:
                    terms[parent.name].append(fn(g))
                # else a constant leaf: nothing reads its gradient
        return Gradients([{name: (node.value, terms[name]) for name, node in self._params.items()}])


class _RowTerms(NamedTuple):
    """A weight's gradient before its sum over the batch: `reduce(*parts)`, where
    each part holds one entry per batch row along its first axis."""
    parts: tuple
    reduce: Callable


def _joined(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class Gradients(MutableMapping):
    """{param name -> gradient} of the backward sweeps of a batch's row blocks.

    A sweep keeps each weight's gradient as its per-row terms. The sum over the
    batch runs when the gradient is first read, once over the rows of every
    block joined in block order, as over one whole batch: the bits do not
    depend on how the batch was split. One `Tape.backward` is the one-block
    case. A parameter whose gradient is row-wise (an op's input registered as
    a parameter) gets the blocks' rows joined.
    """

    def __init__(self, blocks):
        self._blocks = blocks  # per block: {name: (value, [gradient terms in sweep order])}
        self._read = dict.fromkeys(blocks[0])  # name -> gradient, None until read

    @classmethod
    def join(cls, parts):
        """The gradients of a batch from the unread `Gradients` of its row blocks, in row order."""
        return cls([block for part in parts for block in part._blocks])

    def __getitem__(self, name):
        g = self._read[name]
        if g is None:
            g = self._read[name] = self._reduce(name)
        return g

    def __setitem__(self, name, value):
        self._read[name] = value

    def __delitem__(self, name):
        del self._read[name]

    def __iter__(self):
        return iter(self._read)

    def __len__(self):
        return len(self._read)

    def _reduce(self, name):
        values, terms = zip(*(block[name] for block in self._blocks))
        if not terms[0]:  # not reachable from the root
            return np.zeros_like(values[0])
        total = None
        for term in zip(*terms):  # one VJP's term from every block
            if isinstance(term[0], _RowTerms):
                g = term[0].reduce(*(_joined(p) for p in zip(*(t.parts for t in term))))
            else:
                g = _joined(term)
            total = g if total is None else total + g
        return total


# ---------------------------------------------------------------------------
# optimizer + gradient oracle
# ---------------------------------------------------------------------------

def sgd_step(params, grads, lr, momentum=0.0, velocity=None):
    """One SGD(+momentum) update: v <- m*v + g; p <- p - lr*v.

    Returns (new_params, new_velocity); inputs are not mutated.
    """
    if lr <= 0:
        raise ContractError(f"learning rate must be positive, got {lr}")
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


def finite_diff_check(forward_fn, grad_fn, params, eps=1e-5,
                      max_coords_per_param=None, seed=0):
    """Compare analytic gradients to central finite differences: the gradient
    oracle that the tests and the acceptance gate check the tape against.

    forward_fn(params) -> scalar loss; grad_fn(params) -> {name: grad}.
    Returns the maximum relative error over checked coordinates, with
    denominator max(|analytic|, |numeric|, 1e-8). By default every scalar
    parameter is checked; `max_coords_per_param` caps the per-tensor count
    via seeded sampling for large models.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"eps must be in [1e-7, 1e-3], got {eps}")
    analytic = grad_fn(params)
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for name in sorted(params):
        p = params[name]
        flat_idx = np.arange(p.size)
        if max_coords_per_param is not None and p.size > max_coords_per_param:
            flat_idx = rng.choice(p.size, size=max_coords_per_param, replace=False)
        a_flat = analytic[name].reshape(-1)
        for i in flat_idx:
            orig = p.flat[i]
            work = dict(params)
            pp = p.copy()
            pp.flat[i] = orig + eps
            work[name] = pp
            lp = float(forward_fn(work))
            pm = p.copy()
            pm.flat[i] = orig - eps
            work[name] = pm
            lm = float(forward_fn(work))
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"non-finite loss perturbing {name!r} coordinate {int(i)}")
            numeric = (lp - lm) / (2.0 * eps)
            a = float(a_flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > max_err:
                max_err = err
    return max_err
