"""Changepoint posterior allowing the variance to change too.

Each split gets its own (mu, sigma^2) per segment, estimated (or drawn)
from that segment alone, so a shift in spread is detectable even when the
mean is unchanged.  Both segments need at least 2 points for their variance
to be estimable, so splits range over [2, n-2].  Short runs of identical
values would drive an estimated variance to zero and the likelihood to
infinity; the variance floor caps that.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian_stats import (
    DEFAULT_FLOOR_SCALE,
    EstimationMode,
    GaussianParams,
    GaussianSegmentStats,
    InsufficientDataError,
    estimate_draw,
    log_likelihood_segment,
)
from .single_change import ProbabilityVector, _normalize_log_weights


def posterior_exactly_one_var(
    window,
    mode: EstimationMode = EstimationMode.PLUG_IN,
    rng: np.random.Generator | None = None,
    floor: float = DEFAULT_FLOOR_SCALE,
    start: int = 1,
) -> ProbabilityVector:
    """Split posterior with per-segment mean and variance.

    Returns a vector aligned with positions start..start+n-2 (same layout as
    :func:`cpdetect.single_change.posterior_exactly_one`); splits whose
    segments are too short for a variance estimate carry zero probability.
    """
    window = np.asarray(window, dtype=float)
    n = len(window)
    if n < 4:
        raise InsufficientDataError("need at least 4 points (2 per segment)")
    logw = np.full(n - 1, -np.inf)
    for i in range(2, n - 1):
        pre_stats = GaussianSegmentStats.from_data(window[:i])
        post_stats = GaussianSegmentStats.from_data(window[i:])
        pre = estimate_draw(pre_stats, mode, rng=rng, floor=floor)
        post = estimate_draw(post_stats, mode, rng=rng, floor=floor)
        logw[i - 1] = log_likelihood_segment(
            pre_stats, GaussianParams(pre.mu, math.sqrt(pre.sigma2))
        ) + log_likelihood_segment(post_stats, GaussianParams(post.mu, math.sqrt(post.sigma2)))
    values = np.zeros(n - 1)
    finite = np.isfinite(logw)
    values[finite] = _normalize_log_weights(logw[finite])
    return ProbabilityVector(values=values, start=start)
