"""Exact changepoint-location posteriors for one window.

Two subproblems are solved here, both by direct enumeration of every
admissible split of the window:

* exactly one changepoint is known to exist (uniform prior over splits);
* zero or one changepoints (geometric-style prior with per-step change
  probability f, plus the no-change hypothesis).

A split at i means observations 1..i are pre-change and i+1..n are
post-change, so i ranges over 1..n-1: both segments must be non-empty,
because the post-change mean has to be estimated from data.  These
posteriors are the building blocks the iterative kernel evaluates on every
suffix window of the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_stats import (
    EstimationMode,
    GaussianParams,
    GaussianSegmentStats,
    InsufficientDataError,
    DEFAULT_FLOOR_SCALE,
    log_likelihood_segment,
    sample_mu,
    sample_sigma2,
)


@dataclass(frozen=True)
class SingleCpModel:
    """What is known a priori about the window.

    ``mu0`` / ``sigma`` set to None mean the parameter is estimated from the
    data; a float means it is known.  ``change_prior_f`` is the per-step
    prior probability of a changepoint used by the zero-or-one posterior.
    """

    mu0: float | None = None
    sigma: float | None = None
    change_prior_f: float = 0.005

    def __post_init__(self):
        if not (0.0 < self.change_prior_f < 1.0):
            raise ValueError("change_prior_f must be in (0, 1)")
        if self.mu0 is not None and not math.isfinite(self.mu0):
            raise ValueError("known mu0 must be finite")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("known sigma must be positive and finite")


@dataclass
class ProbabilityVector:
    """Probabilities indexed by absolute changepoint position.

    ``values[k]`` is the probability that the changepoint is at position
    ``start + k``.  Vectors may be sub-normalized (the residual mass belongs
    to hypotheses outside the vector, e.g. "no changepoint").
    """

    values: np.ndarray
    start: int = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)

    def total(self) -> float:
        return float(self.values.sum())

    def argmax(self) -> int:
        """Absolute position of the largest entry; ties go to the smallest."""
        if len(self.values) == 0:
            raise ValueError("empty probability vector")
        return self.start + int(np.argmax(self.values))

    def prob_at(self, position: int) -> float:
        k = position - self.start
        if not (0 <= k < len(self.values)):
            return 0.0
        return float(self.values[k])


def _normalize_log_weights(logw: np.ndarray) -> np.ndarray:
    m = np.max(logw)
    if not np.isfinite(m):
        # all hypotheses have -inf weight; fall back to uniform
        return np.full_like(logw, 1.0 / len(logw))
    w = np.exp(logw - m)
    return w / w.sum()


def _segment_sigma2(
    pre: GaussianSegmentStats,
    post: GaussianSegmentStats,
    mode: EstimationMode,
    rng: np.random.Generator | None,
    floor: float,
) -> float:
    """Common sigma^2 for a split, pooled across both segments."""
    dof = pre.n + post.n - 2
    css = pre.centered_sumsq + post.centered_sumsq
    if dof < 1:
        return floor
    s2 = css / dof
    if mode is EstimationMode.POSTERIOR_SAMPLE:
        return sample_sigma2(dof, s2, rng, floor=floor)
    return max(s2, floor)


def _segment_mu(
    stats: GaussianSegmentStats,
    sigma2: float,
    mode: EstimationMode,
    rng: np.random.Generator | None,
) -> float:
    if mode is EstimationMode.POSTERIOR_SAMPLE:
        return sample_mu(stats, sigma2, rng)
    return stats.mean


def _split_log_likelihood(
    window: np.ndarray,
    i: int,
    model: SingleCpModel,
    mode: EstimationMode,
    rng: np.random.Generator | None,
    floor: float,
) -> float:
    """Log-likelihood of the window given a single changepoint at split i."""
    pre = GaussianSegmentStats.from_data(window[:i])
    post = GaussianSegmentStats.from_data(window[i:])
    if model.sigma is not None:
        sigma2 = model.sigma * model.sigma
    else:
        sigma2 = _segment_sigma2(pre, post, mode, rng, floor)
    sigma = math.sqrt(sigma2)
    mu0 = model.mu0 if model.mu0 is not None else _segment_mu(pre, sigma2, mode, rng)
    mu1 = _segment_mu(post, sigma2, mode, rng)
    return log_likelihood_segment(pre, GaussianParams(mu0, sigma)) + log_likelihood_segment(
        post, GaussianParams(mu1, sigma)
    )


def _no_change_log_likelihood(
    window: np.ndarray,
    model: SingleCpModel,
    mode: EstimationMode,
    rng: np.random.Generator | None,
    floor: float,
) -> float:
    stats = GaussianSegmentStats.from_data(window)
    if model.sigma is not None:
        sigma2 = model.sigma * model.sigma
    elif stats.n >= 2:
        s2 = stats.sample_variance
        if mode is EstimationMode.POSTERIOR_SAMPLE:
            sigma2 = sample_sigma2(stats.n - 1, s2, rng, floor=floor)
        else:
            sigma2 = max(s2, floor)
    else:
        sigma2 = floor
    sigma = math.sqrt(sigma2)
    mu0 = model.mu0 if model.mu0 is not None else _segment_mu(stats, sigma2, mode, rng)
    return log_likelihood_segment(stats, GaussianParams(mu0, sigma))


def posterior_exactly_one(
    window,
    model: SingleCpModel,
    mode: EstimationMode = EstimationMode.PLUG_IN,
    rng: np.random.Generator | None = None,
    floor: float = DEFAULT_FLOOR_SCALE,
    start: int = 1,
) -> ProbabilityVector:
    """Posterior over the split position when exactly one changepoint exists.

    The prior over splits is uniform, so it cancels; the result is the
    normalized likelihood of each split.  ``start`` relabels the first split
    position for callers working on a suffix of a longer series.
    """
    window = np.asarray(window, dtype=float)
    n = len(window)
    if n < 2:
        raise InsufficientDataError("need at least 2 points for one changepoint")
    logw = np.array(
        [_split_log_likelihood(window, i, model, mode, rng, floor) for i in range(1, n)]
    )
    return ProbabilityVector(values=_normalize_log_weights(logw), start=start)


def posterior_zero_or_one(
    window,
    model: SingleCpModel,
    mode: EstimationMode = EstimationMode.PLUG_IN,
    rng: np.random.Generator | None = None,
    floor: float = DEFAULT_FLOOR_SCALE,
    start: int = 1,
) -> tuple[float, ProbabilityVector]:
    """Posterior over {no changepoint} + every split, for a 0-or-1-change window.

    Prior weights: f(1-f)^(n-1) per split and (1-f)^n for the no-change
    hypothesis.  Returns (p_none, vector); p_none + vector.total() == 1.
    """
    window = np.asarray(window, dtype=float)
    n = len(window)
    if n < 1:
        raise InsufficientDataError("empty window")
    f = model.change_prior_f
    log_h0 = n * math.log1p(-f) + _no_change_log_likelihood(window, model, mode, rng, floor)
    log_split_prior = math.log(f) + (n - 1) * math.log1p(-f)
    split_logw = [
        log_split_prior + _split_log_likelihood(window, i, model, mode, rng, floor)
        for i in range(1, n)
    ]
    logw = np.array([log_h0] + split_logw)
    probs = _normalize_log_weights(logw)
    return float(probs[0]), ProbabilityVector(values=probs[1:], start=start)
