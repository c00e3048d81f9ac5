"""Univariate tree-structured Parzen estimator search over (learning rate, alpha, temperature)."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .tensor import ContractError

__all__ = ["SearchSpace", "TrialRecord", "StudyError", "suggest", "run_study"]


class StudyError(RuntimeError):
    """No usable trials in a study."""


@dataclass(frozen=True)
class Dimension:
    name: str
    low: float
    high: float
    log10: bool = False

    def to_internal(self, x):
        return np.log10(x) if self.log10 else x

    def from_internal(self, x):
        return 10.0 ** x if self.log10 else x


@dataclass(frozen=True)
class SearchSpace:
    eta: Dimension = field(default_factory=lambda: Dimension("eta", 1e-5, 1e-2, log10=True))
    alpha: Dimension = field(default_factory=lambda: Dimension("alpha", 0.5, 0.9))
    temp: Dimension = field(default_factory=lambda: Dimension("temp", 1.0, 5.0))

    def dimensions(self):
        return (self.eta, self.alpha, self.temp)


@dataclass
class TrialRecord:
    trial_index: int
    params: tuple          # (eta, alpha, temp)
    objective: float       # validation accuracy, maximized
    status: str            # "complete" | "failed"


# TPE knobs, following the original formulation's conventions
N_STARTUP = 2
GAMMA = 0.25
N_CANDIDATES = 24


def _uniform_sample(space: SearchSpace, rng):
    vals = []
    for dim in space.dimensions():
        lo, hi = dim.to_internal(dim.low), dim.to_internal(dim.high)
        vals.append(dim.from_internal(rng.uniform(lo, hi)))
    return tuple(vals)


def _bandwidth(obs, lo, hi):
    span = hi - lo
    return max(span / np.sqrt(len(obs)), 0.01 * span)


_erfc = np.vectorize(math.erfc, otypes=[float])
_norm_ppf = np.vectorize(NormalDist().inv_cdf, otypes=[float])


def _norm_cdf(x):
    return 0.5 * _erfc(-x / math.sqrt(2.0))


def _norm_mass(a, b):
    """Standard normal mass on [a, b]; for a > 0, that of [-b, -a], whose CDF values are not near 1."""
    return np.where(a > 0, _norm_cdf(-a) - _norm_cdf(-b), _norm_cdf(b) - _norm_cdf(a))


def _truncnorm_ppf(q, a, b):
    """Inverse CDF of the standard normal truncated to [a, b], elementwise.

    As scipy.stats.truncnorm does, it inverts from the lower tail where a < 0
    and from the upper tail elsewhere, so a far tail keeps its precision.
    """
    out = np.empty_like(q)
    low = a < 0
    mass = _norm_mass(a, b)
    out[low] = _norm_ppf(_norm_cdf(a[low]) + q[low] * mass[low])
    high = ~low
    out[high] = -_norm_ppf(_norm_cdf(-b[high]) + (1.0 - q[high]) * mass[high])
    return out


def _kde_logpdf(x, obs, bw, lo, hi):
    """Log of the mean of the Gaussians at `obs`, each truncated to [lo, hi]."""
    a, b = (lo - obs[:, None]) / bw, (hi - obs[:, None]) / bw
    z = (x[None, :] - obs[:, None]) / bw
    mass = _norm_mass(a, b)
    pdf = np.where((a <= z) & (z <= b),
                   np.exp(-0.5 * z ** 2) / (math.sqrt(2.0 * math.pi) * mass), 0.0) / bw
    return np.log(np.maximum(pdf.mean(axis=0), 1e-300))


def _kde_sample(obs, bw, lo, hi, n, rng):
    """n draws from the truncated KDE; one uniform each, mapped by the inverse CDF."""
    centers = obs[rng.integers(0, len(obs), size=n)]
    a, b = (lo - centers) / bw, (hi - centers) / bw
    return _truncnorm_ppf(rng.uniform(size=n), a, b) * bw + centers


def suggest(history, space: SearchSpace, trial_seed):
    """Propose one (eta, alpha, temp) triple from the trial history.

    Fewer than N_STARTUP complete trials -> seeded uniform draw. Otherwise,
    per dimension: split the completed trials into good (top ceil(gamma*n))
    and bad, fit truncated-Gaussian KDEs l/g, draw N_CANDIDATES from l, and
    return the candidate maximizing l(x)/g(x).
    """
    rng = np.random.default_rng(trial_seed)
    complete = [t for t in history if t.status == "complete" and np.isfinite(t.objective)]
    if history and not complete:
        warnings.warn("all trials failed so far; falling back to uniform sampling", stacklevel=2)
    if len(complete) < N_STARTUP:
        return _uniform_sample(space, rng)

    complete = sorted(complete, key=lambda t: t.objective, reverse=True)
    n_good = max(1, int(np.ceil(GAMMA * len(complete))))
    good, bad = complete[:n_good], complete[n_good:]  # bad is non-empty: n >= N_STARTUP = 2

    out = []
    for d, dim in enumerate(space.dimensions()):
        lo, hi = dim.to_internal(dim.low), dim.to_internal(dim.high)
        g_obs = np.array([dim.to_internal(t.params[d]) for t in good])
        b_obs = np.array([dim.to_internal(t.params[d]) for t in bad])
        g_bw = _bandwidth(g_obs, lo, hi)
        b_bw = _bandwidth(b_obs, lo, hi)
        cand = _kde_sample(g_obs, g_bw, lo, hi, N_CANDIDATES, rng)
        score = _kde_logpdf(cand, g_obs, g_bw, lo, hi) - _kde_logpdf(cand, b_obs, b_bw, lo, hi)
        best = float(np.clip(cand[int(np.argmax(score))], lo, hi))
        out.append(dim.from_internal(best))
    return tuple(out)


def run_study(objective_fn, space: SearchSpace, n_trials, seed):
    """Sequential TPE study maximizing objective_fn(eta, alpha, temp).

    Non-finite objectives or an ArithmeticError, RuntimeError or ValueError
    (ShapeError included) mark the trial failed; failed trials
    are excluded from density fitting. Returns (best TrialRecord, all records).
    """
    if n_trials < 1:
        raise ContractError(f"n_trials must be >= 1, got {n_trials}")
    history = []
    for i in range(n_trials):
        params = suggest(history, space, trial_seed=seed * 10_007 + i)
        try:
            value = float(objective_fn(*params))
            status = "complete" if np.isfinite(value) else "failed"
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            warnings.warn(f"trial {i} failed: {exc}", stacklevel=2)
            value, status = float("nan"), "failed"
        history.append(TrialRecord(i, params, value, status))
    complete = [t for t in history if t.status == "complete"]
    if not complete:
        raise StudyError("every trial failed; no best parameters available")
    best = max(complete, key=lambda t: t.objective)
    return best, history
