"""Reference code that only the tests run: the gradient oracle, the conv
weight gradient over columns kept from the forward, and the single-model
baseline that the chain is compared against."""
from dataclasses import replace

import numpy as np

from weckd.backbone import BackboneConfig, build_model
from weckd.tensor import ContractError, NumericError, _im2col
from weckd.training import StageResult, TrainConfig, _default_backbone, _f_base_seed, _train_loop


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


def kept_columns_weight_grad(x, w, g):
    """The weight gradient of a stride-1 same-padded conv of x (B, C, H, W) with
    w (F, C, k, k) at output gradient g (B, F, H, W), from the whole batch's
    im2col columns, made once and kept: per-image (F, H*W) @ (H*W, C*k*k)
    products into one (B, F, C*k*k) array, summed once over the batch.
    `Tape.conv2d` rebuilds the columns in chunks instead and must match it bit
    for bit."""
    B, F = g.shape[:2]
    terms = np.matmul(g.reshape(B, F, -1), _im2col(x, w.shape[2]).transpose(0, 2, 1))
    return terms.sum(axis=0).reshape(w.shape)


def train_single_baseline(dataset, split, cfg: TrainConfig,
                          backbone: BackboneConfig = None) -> StageResult:
    """One backbone on d1+d2+d3 with the same budget; the 30%-baseline comparison."""
    backbone = backbone or _default_backbone(dataset)
    model = build_model(replace(backbone, attention_enabled=False,
                                init_seed=_f_base_seed(cfg.seed)))
    return _train_loop(model, split.training_indices(), dataset, cfg, stage_index=9)
