"""Classification metrics and the chain theory-check report."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .losses import kd_loss
from .tensor import ContractError

__all__ = [
    "confusion_matrix",
    "prf1",
    "roc_auc_ovr",
    "TheoryReport",
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
        ranks = rankdata(probs[:, c])  # average ranks handle ties at half weight
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(float(u / (n_pos * n_neg)))
    defined = [a for a in aucs if a is not None]
    macro = float(np.mean(defined)) if defined else None
    return {"per_class": aucs, "macro": macro}


@dataclass
class TheoryReport:
    risks: list                  # empirical 0-1 risks of M1..M3 on the test set
    kl_m2_m1: float              # mean KL(p_M2 || p_M1) at T=1 over the test set
    kl_m3_m2: float
    beta_hat: float | None       # logit-difference attenuation ratio (None if 0/0)
    gaps: list                   # per stage: test error - train error
    hierarchy_holds: bool        # R(M3) <= R(M2) <= R(M1)


def theory_report(progression, test_logits) -> TheoryReport:
    """Empirical risk hierarchy, pairwise KL terms, and the attenuation estimate,
    from `runner.score_chain`'s progression rows and M1..M3 test-set logits.

    beta_hat is the ratio of consecutive mean |logit difference| L1 norms over
    the test set: a diagnostic for whether inherited perturbations shrink.
    Every term runs in float64 whatever the logits' dtype.
    """
    if len(progression) != 3 or len(test_logits) != 3:
        raise ContractError(
            f"theory report needs exactly 3 chain models, got {len(progression)} "
            f"progression rows and {len(test_logits)} logit arrays"
        )
    risks = [1.0 - row["test_acc"] for row in progression]
    gaps = [(1.0 - row["test_acc"]) - (1.0 - row["train_acc"]) for row in progression]
    z = [np.asarray(logits, dtype=np.float64) for logits in test_logits]
    # kd_loss(student, teacher, T) is KL(teacher || student)
    kl_m2_m1 = kd_loss(z[0], z[1], 1.0)
    kl_m3_m2 = kd_loss(z[1], z[2], 1.0)
    denom = float(np.abs(z[1] - z[0]).sum(axis=1).mean())
    numer = float(np.abs(z[2] - z[1]).sum(axis=1).mean())
    beta_hat = None if denom == 0.0 else numer / denom
    return TheoryReport(
        risks=risks,
        kl_m2_m1=kl_m2_m1,
        kl_m3_m2=kl_m3_m2,
        beta_hat=beta_hat,
        gaps=gaps,
        hierarchy_holds=bool(risks[2] <= risks[1] <= risks[0]),
    )
