import numpy as np
import pytest

from weckd.backbone import BackboneConfig, build_model
from weckd.data import generate_synthetic, partition
from weckd.metrics import (
    _average_ranks,
    confusion_matrix,
    prf1,
    roc_auc_ovr,
    theory_report,
)
from weckd.runner import score_chain
from weckd.tensor import ContractError


def test_confusion_perfect_is_diagonal():
    m = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
    np.testing.assert_array_equal(m, np.diag([1, 2, 1]))


def test_confusion_swapped_pair():
    m = confusion_matrix([0, 1], [1, 0], 2)
    np.testing.assert_array_equal(m, [[0, 1], [1, 0]])


def test_confusion_hand_tally():
    m = confusion_matrix([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 2, 0], 3)
    assert m[0, 0] == 1 and m[1, 0] == 1 and m[1, 1] == 1
    assert m[2, 2] == 2 and m[0, 2] == 1
    assert m.sum() == 6


def test_confusion_rejects_out_of_range_labels():
    with pytest.raises(ContractError):
        confusion_matrix([0, 3], [0, 1], 3)


def test_prf1_diagonal_is_all_ones():
    scores = prf1(np.diag([5, 3, 2]))
    assert scores["accuracy"] == 1.0
    for pc in scores["per_class"]:
        assert pc == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert scores["macro"]["f1"] == 1.0


def test_prf1_never_predicted_class_is_zero():
    m = np.array([[5, 0], [3, 0]])  # class 1 never predicted
    scores = prf1(m)
    assert scores["per_class"][1]["precision"] == 0.0
    assert scores["per_class"][1]["recall"] == 0.0
    assert scores["per_class"][1]["f1"] == 0.0


def test_prf1_hand_computation():
    scores = prf1(np.array([[8, 2], [1, 9]]))
    assert scores["per_class"][0]["precision"] == pytest.approx(8 / 9, abs=1e-12)
    assert scores["per_class"][0]["recall"] == pytest.approx(0.8, abs=1e-12)
    assert scores["per_class"][0]["f1"] == pytest.approx(0.8421, abs=1e-4)
    assert scores["accuracy"] == pytest.approx(17 / 20)


def test_prf1_f1_between_precision_and_recall():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(0, 20, size=(4, 4))
        if m.sum() == 0:
            continue
        for pc in prf1(m)["per_class"]:
            lo = min(pc["precision"], pc["recall"])
            hi = max(pc["precision"], pc["recall"])
            assert lo - 1e-12 <= pc["f1"] <= hi + 1e-12


def test_weighted_average_uses_support():
    m = np.array([[10, 0], [0, 30]])
    scores = prf1(m)
    assert scores["weighted"]["f1"] == pytest.approx(1.0)


def test_auc_perfectly_separated():
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.2, 0.8]])
    out = roc_auc_ovr(probs, [0, 0, 1, 1])
    assert out["per_class"] == [1.0, 1.0]
    assert out["macro"] == 1.0


def test_auc_all_ties_is_half():
    probs = np.full((6, 2), 0.5)
    out = roc_auc_ovr(probs, [0, 1, 0, 1, 0, 1])
    assert out["per_class"] == [0.5, 0.5]


def test_auc_rank_example():
    scores = np.array([0.9, 0.8, 0.3, 0.2])
    probs = np.stack([scores, 1 - scores], axis=1)
    out = roc_auc_ovr(probs, [0, 0, 1, 1])
    assert out["per_class"][0] == 1.0


def test_auc_absent_class_reported_missing():
    probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
    out = roc_auc_ovr(probs, [0, 1])
    assert out["per_class"][2] is None
    assert out["macro"] == pytest.approx(np.mean([out["per_class"][0], out["per_class"][1]]))


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=20)
    labels = rng.integers(0, 2, 20)
    base = roc_auc_ovr(np.stack([scores, 1 - scores], axis=1), labels)["per_class"][0]
    for fn in (np.exp, lambda s: 3 * s + 1):
        t = fn(scores)
        out = roc_auc_ovr(np.stack([t, t.max() + 1 - t], axis=1), labels)["per_class"][0]
        assert out == pytest.approx(base, abs=1e-12)


def test_average_ranks_equal_scipy_rankdata_on_tie_heavy_vectors():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    vectors = [np.array([0.5]), np.full(7, 0.25), np.array([0.0, -0.0, 1.0, -0.0]),
               np.array([np.inf, 1.0, -np.inf, 1.0, np.inf])]
    vectors += [rng.integers(0, levels, size=n) / levels
                for n in (2, 9, 64, 500) for levels in (1, 2, 3, 7, 50)]
    for x in vectors:
        np.testing.assert_array_equal(_average_ranks(x), stats.rankdata(x))


def test_auc_of_a_column_holding_nan_is_nan():
    probs = np.array([[0.9, 0.1], [np.nan, 0.2], [0.3, 0.7], [0.2, 0.8]])
    out = roc_auc_ovr(probs, [0, 0, 1, 1])
    assert np.isnan(out["per_class"][0]) and out["per_class"][1] == 1.0
    assert np.isnan(out["macro"])


def _tiny_chain_models():
    bb = BackboneConfig(input_size=(12, 12, 1), conv_blocks=(4,), fc_width=6,
                        num_classes=3)
    return [build_model(bb) for _ in range(3)]


def _tiny_chain_scores(models):
    ds = generate_synthetic(60, 3, (12, 12), 0.1, seed=0)
    return score_chain(models, ds, partition(ds, 0))


def test_theory_report_identical_models():
    report = theory_report(*_tiny_chain_scores(_tiny_chain_models()))
    assert report["kl_m2_m1"] == pytest.approx(0.0, abs=1e-12)
    assert report["kl_m3_m2"] == pytest.approx(0.0, abs=1e-12)
    assert report["beta_hat"] is None          # 0/0 attenuation ratio
    assert report["hierarchy_holds"]           # equal risks satisfy <=
    assert all(0.0 <= r <= 1.0 for r in report["risks"])


def test_theory_report_kl_terms_put_the_later_model_first():
    z = [np.random.default_rng(seed).normal(size=(50, 3)) for seed in range(3)]
    p = [np.exp(zi) / np.exp(zi).sum(axis=1, keepdims=True) for zi in z]
    progression = [{"train_acc": 1.0, "test_acc": 1.0}] * 3
    report = theory_report(progression, z)
    for kl, (a, b) in ((report["kl_m2_m1"], (1, 0)), (report["kl_m3_m2"], (2, 1))):
        assert kl == pytest.approx((p[a] * np.log(p[a] / p[b])).sum(axis=1).mean(), rel=1e-12)


def test_theory_report_is_the_same_for_float32_logits_and_their_float64_upcast():
    z = [np.random.default_rng(seed).normal(0, 3, size=(200, 4)).astype(np.float32)
         for seed in range(3)]
    progression = [{"train_acc": 1.0, "test_acc": 1.0}] * 3
    wide = [zi.astype(np.float64) for zi in z]
    assert theory_report(progression, z) == theory_report(progression, wide)


def test_theory_report_deterministic():
    models = _tiny_chain_models()
    a = theory_report(*_tiny_chain_scores(models))
    b = theory_report(*_tiny_chain_scores(models))
    assert a == b


def test_theory_report_requires_three_models():
    progression, test_logits = _tiny_chain_scores(_tiny_chain_models())
    with pytest.raises(ContractError):
        theory_report(progression[:2], test_logits[:2])
