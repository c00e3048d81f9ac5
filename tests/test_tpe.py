import numpy as np
import pytest

import weckd.tpe
from weckd.tensor import ShapeError
from weckd.tpe import SearchSpace, StudyError, TrialRecord, run_study, suggest


def in_bounds(params, space=SearchSpace()):
    (eta, alpha, temp) = params
    return (space.eta.low <= eta <= space.eta.high
            and space.alpha.low <= alpha <= space.alpha.high
            and space.temp.low <= temp <= space.temp.high)


def test_empty_history_samples_within_bounds():
    for seed in range(20):
        assert in_bounds(suggest([], SearchSpace(), seed))


def test_suggest_is_deterministic():
    history = [TrialRecord(i, (1e-3, 0.6 + 0.02 * i, 2.0), 0.5 + 0.01 * i, "complete")
               for i in range(6)]
    a = suggest(history, SearchSpace(), 42)
    b = suggest(history, SearchSpace(), 42)
    assert a == b


def test_suggest_tracks_good_region():
    # good trials cluster at alpha ~ 0.85, bad ones at ~ 0.55
    rng = np.random.default_rng(0)
    history = []
    for i in range(20):
        good = i % 2 == 0
        alpha = float(rng.normal(0.85 if good else 0.55, 0.01))
        history.append(TrialRecord(i, (1e-3, np.clip(alpha, 0.5, 0.9), 2.0),
                                   0.9 if good else 0.1, "complete"))
    hits = sum(suggest(history, SearchSpace(), seed)[1] > 0.7 for seed in range(100))
    assert hits >= 90


def test_suggest_ignores_failed_trials():
    # failures at alpha ~ 0.9 carry no weight; densities come from the rest
    history = [TrialRecord(i, (1e-3, 0.9, 2.0), float("nan"), "failed") for i in range(10)]
    history += [TrialRecord(10 + i, (1e-3, 0.55 + 0.01 * i, 2.0), 0.5, "complete")
                for i in range(4)]
    params = suggest(history, SearchSpace(), 0)
    assert in_bounds(params)


def test_suggest_all_failed_falls_back_to_uniform():
    history = [TrialRecord(i, (1e-3, 0.7, 2.0), float("nan"), "failed") for i in range(5)]
    with pytest.warns(UserWarning, match="failed"):
        params = suggest(history, SearchSpace(), 3)
    assert in_bounds(params)


def test_suggestions_stay_in_bounds_under_random_histories():
    rng = np.random.default_rng(1)
    space = SearchSpace()
    for trial in range(300):
        n = int(rng.integers(0, 12))
        history = []
        for i in range(n):
            params = (10 ** rng.uniform(-5, -2), rng.uniform(0.5, 0.9), rng.uniform(1, 5))
            status = "complete" if rng.random() > 0.2 else "failed"
            obj = float(rng.random()) if status == "complete" else float("nan")
            history.append(TrialRecord(i, params, obj, status))
        assert in_bounds(suggest(history, space, trial), space)


def test_run_study_single_trial():
    best, trials = run_study(lambda eta, alpha, temp: alpha, SearchSpace(), 1, seed=0)
    assert best.trial_index == 0
    assert len(trials) == 1
    assert trials[0].status == "complete"


def test_run_study_marks_failures_and_keeps_going():
    calls = []

    def objective(eta, alpha, temp):
        calls.append(alpha)
        if len(calls) <= 2:
            return float("nan")
        return alpha

    best, trials = run_study(objective, SearchSpace(), 6, seed=1)
    statuses = [t.status for t in trials]
    assert statuses[:2] == ["failed", "failed"]
    assert best.objective == max(t.objective for t in trials if t.status == "complete")


def test_run_study_marks_a_shape_error_trial_failed():
    calls = []

    def objective(eta, alpha, temp):
        calls.append(alpha)
        if len(calls) == 2:
            raise ShapeError("kernel 3x3 larger than padded input")
        return alpha

    with pytest.warns(UserWarning, match="trial 1 failed"):
        best, trials = run_study(objective, SearchSpace(), 4, seed=2)
    assert [t.status for t in trials] == ["complete", "failed", "complete", "complete"]
    assert np.isnan(trials[1].objective)
    assert best.status == "complete"


def test_run_study_all_failed_raises():
    def objective(eta, alpha, temp):
        raise ArithmeticError("diverged")

    with pytest.raises(StudyError), pytest.warns(UserWarning):
        run_study(objective, SearchSpace(), 3, seed=0)


def test_run_study_deterministic():
    def objective(eta, alpha, temp):
        return -(alpha - 0.7) ** 2

    a = run_study(objective, SearchSpace(), 8, seed=5)
    b = run_study(objective, SearchSpace(), 8, seed=5)
    assert [t.params for t in a[1]] == [t.params for t in b[1]]


def test_tpe_finds_quadratic_optimum_better_than_chance():
    def objective(eta, alpha, temp):
        return -(alpha - 0.7) ** 2

    best, _ = run_study(objective, SearchSpace(), 20, seed=2)
    assert abs(best.params[1] - 0.7) < 0.1


# the scipy oracles: a test calls them only after pytest.importorskip("scipy.stats")
def _scipy_kde_sample(obs, bw, lo, hi, n, rng):
    from scipy.stats import truncnorm
    centers = obs[rng.integers(0, len(obs), size=n)]
    return truncnorm.rvs((lo - centers) / bw, (hi - centers) / bw, loc=centers, scale=bw,
                         size=n, random_state=rng)


def _scipy_kde_logpdf(x, obs, bw, lo, hi):
    from scipy.stats import truncnorm
    pdf = [truncnorm.pdf(x, (lo - o) / bw, (hi - o) / bw, loc=o, scale=bw) for o in obs]
    return np.log(np.maximum(np.mean(pdf, axis=0), 1e-300))


def _kde_cases():
    """(obs, bw, lo, hi) over each dimension's internal range: centres at lo and
    hi among them, bandwidths at the 0.01 * span floor and above it."""
    rng = np.random.default_rng(11)
    for dim in SearchSpace().dimensions():
        lo, hi = dim.to_internal(dim.low), dim.to_internal(dim.high)
        span = hi - lo
        for obs in (np.array([lo]), np.array([hi]), np.r_[lo, rng.uniform(lo, hi, 1), hi],
                    np.r_[lo, rng.uniform(lo, hi, 6), hi]):
            for bw in (0.01 * span, span / np.sqrt(len(obs))):
                yield obs, bw, lo, hi


def test_kde_sampler_matches_scipy_truncnorm_from_the_same_generator():
    pytest.importorskip("scipy.stats")
    for seed, (obs, bw, lo, hi) in enumerate(_kde_cases()):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = weckd.tpe._kde_sample(obs, bw, lo, hi, 200, ours)
        want = _scipy_kde_sample(obs, bw, lo, hi, 200, theirs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert ours.uniform() == theirs.uniform()  # both drew the same stream


def test_kde_pdf_matches_scipy_truncnorm():
    pytest.importorskip("scipy.stats")
    for obs, bw, lo, hi in _kde_cases():
        span = hi - lo
        x = np.concatenate([np.linspace(lo, hi, 41), [lo - 0.01 * span, hi + 0.01 * span]])
        np.testing.assert_allclose(np.exp(weckd.tpe._kde_logpdf(x, obs, bw, lo, hi)),
                                   np.exp(_scipy_kde_logpdf(x, obs, bw, lo, hi)),
                                   rtol=1e-12, atol=0)


def test_suggest_matches_a_scipy_truncnorm_suggest(monkeypatch):
    pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    histories = []
    for n in (2, 3, 5, 9, 14):
        histories.append([TrialRecord(i, (10 ** rng.uniform(-5, -2), rng.uniform(0.5, 0.9),
                                          rng.uniform(1, 5)), float(rng.random()), "complete")
                          for i in range(n)])
    ours = [suggest(h, SearchSpace(), seed) for seed, h in enumerate(histories)]
    monkeypatch.setattr(weckd.tpe, "_kde_sample", _scipy_kde_sample)
    monkeypatch.setattr(weckd.tpe, "_kde_logpdf", _scipy_kde_logpdf)
    for seed, (h, got) in enumerate(zip(histories, ours)):
        np.testing.assert_allclose(got, suggest(h, SearchSpace(), seed), rtol=1e-12, atol=0)
