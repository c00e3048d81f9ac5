import numpy as np
import pytest

from weckd.losses import (
    DistillParams,
    anneal_temperature,
    ce_loss,
    hybrid_loss,
    hybrid_loss_grad,
    kd_loss,
    softmax_temperature,
)
from weckd.tensor import ContractError


def test_softmax_symmetry():
    for temp in (1.0, 2.0, 7.0):
        np.testing.assert_allclose(softmax_temperature(np.array([[0.0, 0.0]]), temp),
                                   [[0.5, 0.5]], atol=1e-15)


def test_softmax_known_value():
    p = softmax_temperature(np.array([[1.0, 0.0]]), 1.0)
    np.testing.assert_allclose(p, [[0.731059, 0.268941]], atol=1e-6)


def test_softmax_high_temperature_flattens():
    p = softmax_temperature(np.array([[10.0, 0.0]]), 1000.0)
    np.testing.assert_allclose(p, [[0.5, 0.5]], atol=3e-3)


def test_softmax_rows_normalized():
    z = np.random.default_rng(0).normal(0, 5, size=(50, 6))
    for temp in (1.0, 3.0):
        assert np.allclose(softmax_temperature(z, temp).sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ContractError):
        softmax_temperature(np.zeros((1, 2)), 0.0)


def test_entropy_increases_with_temperature():
    z = np.array([[2.0, 0.5, -1.0]])
    entropies = []
    for temp in (1.0, 2.0, 3.0, 4.0, 5.0):
        p = softmax_temperature(z, temp)
        entropies.append(float(-(p * np.log(p)).sum()))
    assert all(a < b for a, b in zip(entropies, entropies[1:]))


def test_ce_perfect_prediction():
    p = np.array([[0.0, 1.0]])
    y = np.array([1])
    assert ce_loss(np.clip(p, 1e-12, 1), y) == pytest.approx(0.0, abs=1e-10)


def test_ce_uniform_is_log_k():
    p = np.full((3, 4), 0.25)
    y = np.array([0, 1, 2])
    assert ce_loss(p, y) == pytest.approx(np.log(4), abs=1e-12)


def test_ce_known_value():
    assert ce_loss(np.array([[0.7, 0.3]]), np.array([0])) == pytest.approx(
        0.356675, abs=1e-6)


BAD_LABELS = {
    "one_hot_rows": np.eye(3)[[0, 2, 1, 0]],
    "float_labels": np.array([0.0, 2.0, 1.0, 0.0]),
    "label_at_k": np.array([0, 3, 1, 0]),
    "negative_label": np.array([0, -1, 1, 0]),
    "one_row_short": np.array([0, 2, 1]),
    "empty": np.array([], dtype=np.int64),
}


@pytest.mark.parametrize("loss", ["ce_loss", "hybrid_loss", "hybrid_loss_grad"])
@pytest.mark.parametrize("case", BAD_LABELS)
def test_losses_reject_anything_but_one_class_index_per_row(loss, case):
    z = np.random.default_rng(0).normal(size=(4, 3))
    call = {
        "ce_loss": lambda y: ce_loss(softmax_temperature(z, 1.0), y),
        "hybrid_loss": lambda y: hybrid_loss(z, z, y, 0.5, 2.0),
        "hybrid_loss_grad": lambda y: hybrid_loss_grad(z, z, y, 0.5, 2.0),
    }[loss]
    call(np.array([0, 2, 1, 0]))
    if case == "empty":  # and no logit rows, so that only the emptiness check can refuse it
        z = z[:0]
    with pytest.raises(ContractError):
        call(BAD_LABELS[case])


def test_index_labels_give_the_one_hot_formulas_bit_for_bit():
    # the one-hot forms of CE, the hybrid loss and its gradient, on Y = eye(K)[labels]
    rng = np.random.default_rng(8)
    for tsc in (False, True):
        for _ in range(200):
            B, K = int(rng.integers(1, 300)), int(rng.integers(2, 9))
            zs, zt = rng.normal(0, 3, size=(B, K)), rng.normal(0, 3, size=(B, K))
            labels = rng.integers(0, K, B)
            # alpha = 1 is the stage-1 step, which has no KL gradient
            alpha = float(rng.choice([rng.uniform(0, 1), 1.0]))
            temp = float(rng.uniform(1, 5))
            Y = np.eye(K)[labels]
            ps = softmax_temperature(zs, 1.0)
            ce = float(-(Y * np.log(np.maximum(ps, 1e-12))).sum(axis=-1).mean())
            kd = kd_loss(zs, zt, temp)
            kd_weight = (1.0 - alpha) * (temp * temp if tsc else 1.0)
            g = alpha * (ps - Y) / B
            if alpha < 1.0:
                kd_scale = temp if tsc else 1.0 / temp
                g = g + (1.0 - alpha) * kd_scale * (
                    softmax_temperature(zs, temp) - softmax_temperature(zt, temp)) / B
            assert ce_loss(ps, labels) == ce
            assert hybrid_loss(zs, zt, labels, alpha, temp, tsc) == (alpha * ce + kd_weight * kd, ce, kd)
            assert hybrid_loss_grad(zs, zt, labels, alpha, temp, tsc).tobytes() == g.tobytes()


def test_kd_zero_at_equality():
    z = np.random.default_rng(1).normal(size=(8, 5))
    assert abs(kd_loss(z, z, 2.0)) < 1e-12


def test_kd_known_value():
    # teacher (2/3, 1/3) vs student (0.5, 0.5)
    zt = np.log(np.array([[2.0 / 3.0, 1.0 / 3.0]]))
    zs = np.array([[0.0, 0.0]])
    assert kd_loss(zs, zt, 1.0) == pytest.approx(0.056633, abs=1e-6)


def test_kd_shrinks_at_high_temperature():
    zs = np.array([[2.0, -1.0, 0.3]])
    zt = np.array([[0.1, 1.5, -0.4]])
    assert kd_loss(zs, zt, 5.0) < kd_loss(zs, zt, 1.0)


def test_kd_nonnegative():
    rng = np.random.default_rng(2)
    zs = rng.normal(0, 3, size=(500, 4))
    zt = rng.normal(0, 3, size=(500, 4))
    for temp in (1.0, 2.5):
        assert kd_loss(zs, zt, temp) >= -1e-12


def test_kd_shape_mismatch():
    with pytest.raises(ContractError):
        kd_loss(np.zeros((1, 3)), np.zeros((1, 4)), 1.0)


def test_hybrid_alpha_endpoints():
    rng = np.random.default_rng(3)
    zs = rng.normal(size=(4, 3))
    zt = rng.normal(size=(4, 3))
    y = rng.integers(0, 3, 4)
    total1, ce, _ = hybrid_loss(zs, zt, y, 1.0, 2.0)
    assert total1 == ce
    total0, _, kd = hybrid_loss(zs, zt, y, 0.0, 2.0)
    assert total0 == kd


def test_hybrid_exact_linear_combination():
    rng = np.random.default_rng(4)
    zs = rng.normal(size=(4, 3))
    zt = rng.normal(size=(4, 3))
    y = rng.integers(0, 3, 4)
    for alpha in np.linspace(0, 1, 11):
        total, ce, kd = hybrid_loss(zs, zt, y, float(alpha), 3.0)
        assert total == pytest.approx(alpha * ce + (1 - alpha) * kd, abs=1e-15)


def test_hybrid_weighting_arithmetic():
    # with ce=1.0 and kd=0.5, weight 0.7365 mixes to 0.86825
    zs = np.array([[3.0, 0.0]])
    y = np.array([0])
    total, ce, kd = hybrid_loss(zs, zs * 0.5, y, 0.7365, 2.0)
    assert total == pytest.approx(0.7365 * ce + 0.2635 * kd, abs=1e-15)
    assert 0.7365 * 1.0 + 0.2635 * 0.5 == pytest.approx(0.86825, abs=1e-9)


def test_hybrid_grad_zero_at_global_minimum():
    # student matches teacher exactly and puts all mass on the true class
    zs = np.array([[40.0, 0.0]])
    y = np.array([0])
    g = hybrid_loss_grad(zs, zs, y, 0.7, 2.0)
    assert np.all(np.abs(g) < 1e-12)


def test_hybrid_grad_softmax_ce_identity():
    z = np.log(np.array([[0.7, 0.3]]))
    g = hybrid_loss_grad(z, z, np.array([0]), 1.0, 1.0)
    np.testing.assert_allclose(g, [[-0.3, 0.3]], atol=1e-12)


def test_hybrid_grad_matches_finite_differences():
    # the reported loss is the objective the gradient differentiates, T^2 or not
    rng = np.random.default_rng(5)
    for tsc in (False, True):
        for _ in range(50):
            B, K = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            zs = rng.normal(0, 2, size=(B, K))
            zt = rng.normal(0, 2, size=(B, K))
            y = rng.integers(0, K, B)
            alpha = float(rng.uniform(0, 1))
            temp = float(rng.uniform(1, 5))
            g = hybrid_loss_grad(zs, zt, y, alpha, temp, t_squared_compensation=tsc)

            def loss(z):
                return hybrid_loss(z, zt, y, alpha, temp, t_squared_compensation=tsc)[0]

            eps = 1e-5
            for i in range(B):
                for k in range(K):
                    zp = zs.copy(); zp[i, k] += eps
                    zm = zs.copy(); zm[i, k] -= eps
                    num = (loss(zp) - loss(zm)) / (2 * eps)
                    denom = max(abs(g[i, k]), abs(num), 1e-8)
                    assert abs(g[i, k] - num) / denom < 1e-6, f"t_squared_compensation={tsc}"


def test_hybrid_t_squared_weights_only_the_kd_term():
    rng = np.random.default_rng(7)
    zs, zt = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    y = rng.integers(0, 3, 4)
    plain = hybrid_loss(zs, zt, y, 0.4, 3.0)
    scaled = hybrid_loss(zs, zt, y, 0.4, 3.0, t_squared_compensation=True)
    assert scaled[1:] == plain[1:]
    assert scaled[0] == pytest.approx(0.4 * plain[1] + 0.6 * 9.0 * plain[2], rel=1e-14)


def test_anneal_endpoints():
    assert anneal_temperature(0, 50, 4.0, 1.0) == 4.0
    assert anneal_temperature(50, 50, 4.0, 1.0) == 1.0


def test_anneal_midpoint():
    assert anneal_temperature(25, 50, 5.0, 1.0) == 3.0


def test_anneal_is_exactly_linear():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t_min = float(rng.uniform(1.0, 2.0))
        t_max = float(rng.uniform(t_min, 8.0))
        E = int(rng.integers(1, 100))
        for e in range(E + 1):
            # lerp form is bit-exact; the subtraction form agrees to roundoff
            frac = e / E
            assert anneal_temperature(e, E, t_max, t_min) == t_max * (1 - frac) + t_min * frac
            expected = t_max - (t_max - t_min) * e / E
            assert anneal_temperature(e, E, t_max, t_min) == pytest.approx(expected, abs=1e-12)


def test_anneal_rejects_an_epoch_past_the_schedule():
    with pytest.raises(ContractError, match="60"):
        anneal_temperature(60, 50, 4.0, 1.5)


def test_distill_params_validation():
    with pytest.raises(ContractError):
        DistillParams(alpha=1.5)
    with pytest.raises(ContractError):
        DistillParams(t_min=0.5)
    with pytest.raises(ContractError):
        DistillParams(t_max=11.0)
    with pytest.raises(ContractError):
        DistillParams(t_max=1.0, t_min=2.0)
