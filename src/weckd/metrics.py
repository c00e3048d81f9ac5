"""Classification metrics and the chain theory-check report."""
from __future__ import annotations

import numpy as np

from .data import N_STAGES
from .losses import kd_loss
from .tensor import ContractError

__all__ = [
    "confusion_matrix",
    "prf1",
    "roc_auc_ovr",
    "theory_report",
]


def confusion_matrix(pred_labels, true_labels, num_classes):
    """K x K counts; rows are true classes, columns predictions."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ContractError(f"{pred.size} predictions vs {true.size} truths")
    if pred.size and (pred.max() >= num_classes or true.max() >= num_classes
                      or pred.min() < 0 or true.min() < 0):
        raise ContractError(f"labels outside [0,{num_classes})")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (true, pred), 1)
    return mat


def _safe_div(num, den):
    return num / den if den > 0 else 0.0


def prf1(matrix):
    """Per-class precision/recall/F1 plus macro, weighted, and accuracy.

    Zero-denominator cases (class never predicted / never present) are 0.
    """
    matrix = np.asarray(matrix)
    k = matrix.shape[0]
    total = matrix.sum()
    if total == 0:
        raise ContractError("empty confusion matrix")
    per_class = []
    support = matrix.sum(axis=1)
    for c in range(k):
        tp = matrix[c, c]
        precision = _safe_div(tp, matrix[:, c].sum())
        recall = _safe_div(tp, support[c])
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class.append({"precision": float(precision), "recall": float(recall), "f1": float(f1)})
    weights = support / total
    return {
        "per_class": per_class,
        "macro": {key: float(np.mean([pc[key] for pc in per_class]))
                  for key in ("precision", "recall", "f1")},
        "weighted": {key: float(np.sum([w * pc[key] for w, pc in zip(weights, per_class)]))
                     for key in ("precision", "recall", "f1")},
        "accuracy": float(np.trace(matrix) / total),
    }


def _average_ranks(x):
    """1-based ranks of `x`, each tie group sharing its mean rank; all NaN if `x` holds a NaN."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc_ovr(probs, true_labels):
    """One-vs-rest ROC-AUC per class via the Mann-Whitney rank statistic.

    Ties count half. Classes absent from the truths (or covering all of it)
    get None; the macro average skips them.
    """
    probs = np.asarray(probs, dtype=np.float64)
    true = np.asarray(true_labels, dtype=np.int64)
    k = probs.shape[1]
    aucs = []
    for c in range(k):
        pos = true == c
        n_pos = int(pos.sum())
        n_neg = int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            aucs.append(None)
            continue
        ranks = _average_ranks(probs[:, c])  # average ranks handle ties at half weight
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(float(u / (n_pos * n_neg)))
    defined = [a for a in aucs if a is not None]
    macro = float(np.mean(defined)) if defined else None
    return {"per_class": aucs, "macro": macro}


def theory_report(progression, test_logits) -> dict:
    """Empirical risk hierarchy, the KL term of each consecutive pair of models,
    and the attenuation estimate, from `runner.score_chain`'s progression rows
    and each chain model's test-set logits: the dict stored under "theory".

    risks are the test-set 0-1 risks, gaps the test error less the train error,
    and `kl_m{i+1}_m{i}` the mean KL(p_M{i+1} || p_M{i}) at T=1. beta_hat is the
    ratio of the last mean |logit difference| L1 norm between consecutive models
    to the one before it (None if that is 0): a diagnostic for whether inherited
    perturbations shrink. Every term runs in float64 whatever the logits' dtype.
    """
    if len(progression) != N_STAGES or len(test_logits) != N_STAGES:
        raise ContractError(
            f"theory report needs exactly {N_STAGES} chain models, got {len(progression)} "
            f"progression rows and {len(test_logits)} logit arrays"
        )
    risks = [1.0 - row["test_acc"] for row in progression]
    report = {
        "risks": risks,
        "gaps": [(1.0 - row["test_acc"]) - (1.0 - row["train_acc"]) for row in progression],
        "hierarchy_holds": all(b <= a for a, b in zip(risks, risks[1:])),
    }
    z = [np.asarray(logits, dtype=np.float64) for logits in test_logits]
    shifts = []
    for i, (prev, cur) in enumerate(zip(z, z[1:]), start=1):
        # kd_loss(student, teacher, T) is KL(teacher || student)
        report[f"kl_m{i + 1}_m{i}"] = kd_loss(prev, cur, 1.0)
        shifts.append(float(np.abs(cur - prev).sum(axis=1).mean()))
    report["beta_hat"] = None if shifts[-2] == 0.0 else shifts[-1] / shifts[-2]
    return report
