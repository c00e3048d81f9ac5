"""Distillation loss machinery: temperature softmax, CE, KL, hybrid objective, annealing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ContractError

__all__ = [
    "DistillParams",
    "softmax_temperature",
    "ce_loss",
    "kd_loss",
    "hybrid_loss",
    "hybrid_loss_grad",
    "anneal_temperature",
]


@dataclass(frozen=True)
class DistillParams:
    alpha: float = 0.7
    t_max: float = 4.0
    t_min: float = 1.0
    # classical KD multiplies the KL gradient by T^2; the hybrid objective
    # here does not, so the flag defaults off (ablation knob only)
    t_squared_compensation: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractError(f"alpha must be in [0,1], got {self.alpha}")
        if self.t_min < 1.0:
            raise ContractError(f"t_min must be >= 1, got {self.t_min}")
        if self.t_max > 10.0:
            raise ContractError(f"t_max must be <= 10, got {self.t_max}")
        if self.t_max < self.t_min:
            raise ContractError(f"t_max {self.t_max} below t_min {self.t_min}")


def softmax_temperature(z, temp):
    """Row-wise softmax of z/temp with max-subtraction for stability."""
    if temp <= 0:
        raise ContractError(f"temperature must be positive, got {temp}")
    z = np.asarray(z, dtype=np.float64) / temp
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _check_labels(labels, shape):
    """`labels` as integer class indices, one in [0, K) per row of a (B, K) `shape`."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be a 1-D integer vector, got {labels.dtype} {labels.shape}")
    if labels.size == 0 or labels.size != shape[0]:
        raise ContractError(f"{labels.size} labels for {shape[0]} rows; need one per row, at least one")
    if labels.min() < 0 or labels.max() >= shape[-1]:
        raise ContractError(f"labels must lie in [0, {shape[-1]}), got [{labels.min()}, {labels.max()}]")
    return labels


def ce_loss(p, labels):
    """Mean cross-entropy of probability rows against integer class labels."""
    p = np.asarray(p, dtype=np.float64)
    labels = _check_labels(labels, p.shape)
    return float(-np.log(np.maximum(p[np.arange(labels.size), labels], 1e-12)).mean())


def kd_loss(z_student, z_teacher, temp):
    """Mean KL(teacher || student), both softened at `temp`."""
    z_student = np.asarray(z_student, dtype=np.float64)
    z_teacher = np.asarray(z_teacher, dtype=np.float64)
    if z_student.shape != z_teacher.shape:
        raise ContractError(
            f"student logits {z_student.shape} and teacher logits {z_teacher.shape} disagree"
        )
    pt = softmax_temperature(z_teacher, temp)
    ps = softmax_temperature(z_student, temp)
    kl = (pt * (np.log(np.maximum(pt, 1e-12)) - np.log(np.maximum(ps, 1e-12)))).sum(axis=-1)
    return float(kl.mean())


def hybrid_loss(z_student, z_teacher, labels, alpha, temp,
                t_squared_compensation=False):
    """alpha * CE(student at T=1, labels) + (1-alpha) * KL(teacher_T || student_T).

    With t_squared_compensation the KL term is weighted by T^2 as well, the
    objective whose gradient `hybrid_loss_grad` returns for the same flag.
    Returns (total, ce_part, kd_part); kd_part is the unweighted KL.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must be in [0,1], got {alpha}")
    ce = ce_loss(softmax_temperature(z_student, 1.0), labels)
    kd = kd_loss(z_student, z_teacher, temp)
    kd_weight = (1.0 - alpha) * (temp * temp if t_squared_compensation else 1.0)
    return alpha * ce + kd_weight * kd, ce, kd


def hybrid_loss_grad(z_student, z_teacher, labels, alpha, temp,
                     t_squared_compensation=False):
    """Closed-form d(hybrid)/d(student logits), shape (B, K)."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must be in [0,1], got {alpha}")
    z_student = np.asarray(z_student, dtype=np.float64)
    z_teacher = np.asarray(z_teacher, dtype=np.float64)
    if z_student.shape != z_teacher.shape:
        raise ContractError(
            f"student logits {z_student.shape} and teacher logits {z_teacher.shape} disagree"
        )
    labels = _check_labels(labels, z_student.shape)
    B = z_student.shape[0]
    ps = softmax_temperature(z_student, 1.0)
    ps[np.arange(B), labels] -= 1.0  # softmax minus the one-hot rows of the labels
    g = alpha * ps / B
    if alpha < 1.0:
        ps_t = softmax_temperature(z_student, temp)
        pt_t = softmax_temperature(z_teacher, temp)
        kd_scale = temp if t_squared_compensation else (1.0 / temp)
        g = g + (1.0 - alpha) * kd_scale * (ps_t - pt_t) / B
    return g


def anneal_temperature(epoch, total_epochs, t_max, t_min):
    """Linear schedule T(e) = t_max - (t_max - t_min) * e / total_epochs."""
    if total_epochs < 1:
        raise ContractError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch <= total_epochs:
        raise ContractError(f"epoch must be in [0, {total_epochs}], got {epoch}")
    # lerp form so both endpoints are exact in floating point
    frac = epoch / total_epochs
    return float(t_max * (1.0 - frac) + t_min * frac)
