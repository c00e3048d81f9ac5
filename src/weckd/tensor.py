"""Dense float64 tensor ops with a taped reverse-mode backward pass.

The op set is deliberately closed: exactly the primitives the classifier
backbone needs (conv2d, relu, 2x2 maxpool, dense, GAP, softmax, and a
spatial attention gate with its per-location scaling). The pure functions
and the `Tape` methods share names, so the backbone's one layer sequence
runs on either. No general computation graph.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "ContractError",
    "NumericError",
    "Tape",
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

def _out_size(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


def _im2col(x, k, stride, pad):
    # x: (B, C, H, W) -> cols (B, Ho*Wo, C*k*k)
    B, C, H, W = x.shape
    Ho = _out_size(H, k, stride, pad)
    Wo = _out_size(W, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(B, C, Ho, Wo, k, k),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(B, Ho * Wo, C * k * k)
    return np.ascontiguousarray(cols), Ho, Wo


def _col2im(dcols, xshape, k, stride, pad):
    # dcols: (B, Ho*Wo, C*k*k) -> dx (B, C, H, W), scatter-add of patches
    B, C, H, W = xshape
    Ho = _out_size(H, k, stride, pad)
    Wo = _out_size(W, k, stride, pad)
    dxp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    d = dcols.reshape(B, Ho, Wo, C, k, k).transpose(0, 3, 1, 2, 4, 5)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + Ho * stride:stride, j:j + Wo * stride:stride] += d[:, :, :, :, i, j]
    if pad:
        dxp = dxp[:, :, pad:-pad, pad:-pad]
    return dxp


def conv2d(x, w, b, stride=1, pad=0):
    """Cross-correlation of x (B,C,H,W) with kernels w (F,C,k,k) plus bias."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
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
    if stride < 1:
        raise ContractError(f"conv2d stride must be >= 1, got {stride}")
    if k > x.shape[2] + 2 * pad or k > x.shape[3] + 2 * pad:
        raise ShapeError(f"kernel {k}x{k} larger than padded input {x.shape} with pad={pad}")
    cols, Ho, Wo = _im2col(x, k, stride, pad)
    F = w.shape[0]
    out = cols @ w.reshape(F, -1).T + b
    return out.transpose(0, 2, 1).reshape(x.shape[0], F, Ho, Wo)


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    # stable in both tails
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def maxpool2(x):
    """2x2 max pooling, stride 2; odd trailing rows/columns are dropped."""
    B, C, H, W = x.shape
    H2, W2 = H // 2, W // 2
    if H2 == 0 or W2 == 0:
        raise ShapeError(f"maxpool2 needs spatial size >= 2, got {x.shape}")
    xc = x[:, :, :H2 * 2, :W2 * 2]
    win = xc.reshape(B, C, H2, 2, W2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, H2, W2, 4)
    return win.max(axis=-1)


def _maxpool2_with_arg(x):
    B, C, H, W = x.shape
    H2, W2 = H // 2, W // 2
    xc = x[:, :, :H2 * 2, :W2 * 2]
    win = xc.reshape(B, C, H2, 2, W2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, H2, W2, 4)
    arg = win.argmax(axis=-1)  # first max wins: row-major lowest index
    return win.max(axis=-1), arg


def _maxpool2_backward(g, arg, xshape):
    B, C, H, W = xshape
    H2, W2 = H // 2, W // 2
    dwin = np.zeros((B, C, H2, W2, 4))
    np.put_along_axis(dwin, arg[..., None], g[..., None], axis=-1)
    dx = np.zeros(xshape)
    dx[:, :, :H2 * 2, :W2 * 2] = (
        dwin.reshape(B, C, H2, W2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, H2 * 2, W2 * 2)
    )
    return dx


def dense(x, w, b):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"dense inner-dim mismatch: input {x.shape} vs weight {w.shape}")
    return x @ w + b


def gap(x):
    if x.ndim != 4:
        raise ShapeError(f"gap expects (B,C,H,W), got {x.shape}")
    return x.mean(axis=(2, 3))


def attention_scores(f_base, w_att, b_att):
    """Per-location sigmoid gate: scores (B,H,W) from features (B,C,H,W)."""
    f_base = np.asarray(f_base, dtype=np.float64)
    w = np.asarray(w_att, dtype=np.float64).reshape(-1)
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


class Tape:
    """Records the forward pass of the closed layer set for one backward sweep.

    Nodes are appended in execution order, so the list itself is the
    topological order; backward walks it once in reverse.
    """

    def __init__(self):
        self._nodes = []
        self._params = {}  # name -> node

    def _add(self, node):
        self._nodes.append(node)
        return node

    def param(self, name, value):
        if name in self._params:
            raise ContractError(f"parameter {name!r} already on tape")
        node = self._add(_Node(np.asarray(value, dtype=np.float64), name=name))
        self._params[name] = node
        return node

    def const(self, value):
        return self._add(_Node(np.asarray(value, dtype=np.float64)))

    # -- recorded ops -------------------------------------------------------

    def conv2d(self, x, w, b, stride=1, pad=0):
        out = conv2d(x.value, w.value, b.value, stride=stride, pad=pad)
        xv, wv = x.value, w.value
        k = wv.shape[2]
        F = wv.shape[0]
        cols, Ho, Wo = _im2col(xv, k, stride, pad)

        def vjp_x(g):
            g2 = g.reshape(g.shape[0], F, -1).transpose(0, 2, 1)  # (B, Ho*Wo, F)
            dcols = g2 @ wv.reshape(F, -1)
            return _col2im(dcols, xv.shape, k, stride, pad)

        def vjp_w(g):
            g2 = g.reshape(g.shape[0], F, -1).transpose(0, 2, 1)
            return np.einsum("bpf,bpc->fc", g2, cols).reshape(wv.shape)

        def vjp_b(g):
            return g.sum(axis=(0, 2, 3))

        return self._add(_Node(out, ((x, vjp_x), (w, vjp_w), (b, vjp_b))))

    def relu(self, x):
        mask = x.value > 0
        return self._add(_Node(x.value * mask, ((x, lambda g: g * mask),)))

    def maxpool2(self, x):
        out, arg = _maxpool2_with_arg(x.value)
        shape = x.value.shape
        return self._add(_Node(out, ((x, lambda g: _maxpool2_backward(g, arg, shape)),)))

    def dense(self, x, w, b):
        out = dense(x.value, w.value, b.value)
        xv, wv = x.value, w.value
        return self._add(_Node(out, (
            (x, lambda g: g @ wv.T),
            (w, lambda g: xv.T @ g),
            (b, lambda g: g.sum(axis=0)),
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
        out = attention_scores(fv, wv, b.value)
        ds = out * (1.0 - out)  # sigmoid'

        def vjp_f(g):
            return np.einsum("bhw,c->bchw", g * ds, wv)

        def vjp_w(g):
            return np.einsum("bhw,bchw->c", g * ds, fv).reshape(np.asarray(w.value).shape)

        def vjp_b(g):
            return np.full(np.asarray(b.value).shape, (g * ds).sum())

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
        """Reverse sweep from `root`; returns {param name -> gradient}.

        With seed_grad omitted, `root` must be a scalar loss (seed 1).
        Parameters not reachable from `root` get zero gradients.
        """
        if seed_grad is None:
            if np.asarray(root.value).size != 1:
                raise ContractError(
                    f"backward without a seed requires a scalar root, got shape {np.asarray(root.value).shape}"
                )
            seed_grad = np.ones_like(np.asarray(root.value, dtype=np.float64))
        seed_grad = np.asarray(seed_grad, dtype=np.float64)
        if seed_grad.shape != np.asarray(root.value).shape:
            raise ShapeError(
                f"seed gradient shape {seed_grad.shape} does not match root shape {np.asarray(root.value).shape}"
            )
        grads = {id(root): seed_grad}
        for node in reversed(self._nodes):
            g = grads.get(id(node))
            if g is None:
                continue
            for parent, fn in node.vjps:
                contrib = fn(g)
                prev = grads.get(id(parent))
                grads[id(parent)] = contrib if prev is None else prev + contrib
        out = {}
        for name, node in self._params.items():
            g = grads.get(id(node))
            out[name] = np.zeros_like(node.value) if g is None else g
        return out


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
    """Compare analytic gradients to central finite differences.

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
