"""Scalar reference implementations that the kernel is tested against.

The kernel (``cpdetect.kernel``) evaluates every posterior it needs as whole
vectorised tables.  The functions here compute the same quantities one
window and one split at a time, from per-segment sufficient statistics and
explicit Gaussian parameters:

* Gaussian log-likelihoods, conjugate posteriors and posterior draws;
* the exactly-one and zero-or-one changepoint posteriors of one window, with
  a common variance (row j of the kernel's tables is the exactly-one
  posterior on the suffix window after j);
* the exactly-one and zero-or-one posteriors with a separate mean and
  variance per segment;
* ``run_trial``, one benchmark trial at one threshold, which the harness's
  single-pass threshold sweep must reproduce;
* ``dense_table``, the (n+1) x (n+1) conditional table that a
  ``ConditionalTables`` describes by its product form and its rows stored
  whole.

A split at i means observations 1..i are pre-change and i+1..n are
post-change, so i ranges over 1..n-1: both segments must be non-empty,
because the post-change mean has to be estimated from data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cpdetect.gaussian_stats import DEFAULT_FLOOR_SCALE, LOG_2PI, EstimationMode
from cpdetect.harness import ScenarioSpec, TrialRecord, generate_trial_data
from cpdetect.kernel import ProbabilityVector, SingleCpModel


class InsufficientDataError(ValueError):
    """Raised when an estimate requires more observations than available."""


# -- Gaussian segments ---------------------------------------------------


@dataclass(frozen=True)
class GaussianParams:
    """Location/scale of a normal distribution (sigma is the std dev)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class PosteriorDraw:
    """One concrete (mu, sigma2) pair plus how it was obtained."""

    mu: float
    sigma2: float
    source: EstimationMode


@dataclass(frozen=True)
class GaussianSegmentStats:
    """Sufficient statistics (n, sum, sum of squares) of one segment."""

    n: int
    sum: float = 0.0
    sumsq: float = 0.0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("count must be nonnegative")
        if self.n == 0 and (self.sum != 0.0 or self.sumsq != 0.0):
            raise ValueError("empty segment must have zero sums")

    @classmethod
    def from_data(cls, data) -> "GaussianSegmentStats":
        arr = np.asarray(data, dtype=float)
        return cls(n=int(arr.size), sum=float(arr.sum()), sumsq=float((arr * arr).sum()))

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise InsufficientDataError("mean of empty segment")
        return self.sum / self.n

    @property
    def centered_sumsq(self) -> float:
        """Sum of squared deviations about the segment mean (>= 0)."""
        if self.n == 0:
            return 0.0
        return max(0.0, self.sumsq - self.sum * self.sum / self.n)

    @property
    def sample_variance(self) -> float:
        if self.n < 2:
            raise InsufficientDataError("sample variance needs n >= 2")
        return self.centered_sumsq / (self.n - 1)


def log_likelihood_point(x: float, params: GaussianParams) -> float:
    """Log density of N(mu, sigma^2) at x."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    z = (x - params.mu) / params.sigma
    return -0.5 * LOG_2PI - math.log(params.sigma) - 0.5 * z * z


def log_likelihood_segment(stats: GaussianSegmentStats, params: GaussianParams) -> float:
    """Sum of log densities over a segment, from sufficient statistics only.

    Equals sum(log_likelihood_point(x, params) for x in segment); 0 for an
    empty segment.
    """
    if stats.n == 0:
        return 0.0
    sigma2 = params.sigma * params.sigma
    quad = stats.sumsq - 2.0 * params.mu * stats.sum + stats.n * params.mu * params.mu
    return -0.5 * stats.n * (LOG_2PI + math.log(sigma2)) - quad / (2.0 * sigma2)


def posterior_sigma2_params(stats: GaussianSegmentStats) -> tuple[int, float]:
    """(dof, scale) of the scaled-inverse-chi-square posterior for sigma^2."""
    if stats.n < 2:
        raise InsufficientDataError("sigma^2 posterior needs n >= 2")
    return stats.n - 1, stats.sample_variance


def sample_sigma2(
    dof: int, scale: float, rng: np.random.Generator, floor: float = DEFAULT_FLOOR_SCALE
) -> float:
    """One draw from scaled-inverse-chi-square(dof, scale).

    A degenerate posterior (scale 0) returns the variance floor instead of 0.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if scale == 0.0:
        return floor
    draw = dof * scale / rng.chisquare(dof)
    return max(draw, floor)


def sample_mu(stats: GaussianSegmentStats, sigma2: float, rng: np.random.Generator) -> float:
    """One draw from the conditional posterior N(segment mean, sigma2 / n)."""
    if stats.n < 1:
        raise InsufficientDataError("mu posterior needs n >= 1")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return stats.mean + math.sqrt(sigma2 / stats.n) * rng.standard_normal()


def estimate_draw(
    stats: GaussianSegmentStats,
    mode: EstimationMode,
    rng: np.random.Generator | None = None,
    floor: float = DEFAULT_FLOOR_SCALE,
) -> PosteriorDraw:
    """Concrete (mu, sigma2) for a segment, by plug-in or posterior sampling."""
    if stats.n < 2:
        raise InsufficientDataError("estimating sigma^2 needs n >= 2")
    if mode is EstimationMode.PLUG_IN:
        return PosteriorDraw(
            mu=stats.mean, sigma2=max(stats.sample_variance, floor), source=mode
        )
    if rng is None:
        raise ValueError("posterior sampling requires an rng")
    dof, scale = posterior_sigma2_params(stats)
    sigma2 = sample_sigma2(dof, scale, rng, floor=floor)
    mu = sample_mu(stats, sigma2, rng)
    return PosteriorDraw(mu=mu, sigma2=sigma2, source=mode)


# -- one window, common variance -------------------------------------------


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


# -- one window, a variance per segment ------------------------------------


def posterior_exactly_one_var(
    window,
    mode: EstimationMode = EstimationMode.PLUG_IN,
    rng: np.random.Generator | None = None,
    floor: float = DEFAULT_FLOOR_SCALE,
    start: int = 1,
) -> ProbabilityVector:
    """Split posterior with per-segment mean and variance.

    Each split gets its own (mu, sigma^2) per segment, estimated (or drawn)
    from that segment alone.  Both segments need at least 2 points for their
    variance to be estimable, so splits range over [2, n-2]; the vector is
    aligned with positions start..start+n-2 (the layout of
    :func:`posterior_exactly_one`), and the other splits carry zero
    probability.
    """
    window = np.asarray(window, dtype=float)
    n = len(window)
    if n < 4:
        raise InsufficientDataError("need at least 4 points (2 per segment)")
    logw = np.full(n - 1, -np.inf)
    for i in range(2, n - 1):
        logw[i - 1] = _split_log_likelihood_var(window, i, mode, rng, floor)
    values = np.zeros(n - 1)
    finite = np.isfinite(logw)
    values[finite] = _normalize_log_weights(logw[finite])
    return ProbabilityVector(values=values, start=start)


def posterior_zero_or_one_var(
    window,
    mode: EstimationMode = EstimationMode.PLUG_IN,
    rng: np.random.Generator | None = None,
    floor: float = DEFAULT_FLOOR_SCALE,
) -> tuple[float, ProbabilityVector]:
    """Posterior over {no changepoint} + every split, with per-segment mean
    and variance.

    The splits are those of :func:`posterior_exactly_one_var`, [2, n-2],
    and the priors those of :func:`posterior_zero_or_one` with the default
    change prior; the no-change hypothesis estimates the window's mean and
    variance.  Returns (p_none, vector); the vector is aligned with
    positions 1..n-1 and carries zero outside the splits.
    """
    window = np.asarray(window, dtype=float)
    n = len(window)
    if n < 4:
        raise InsufficientDataError("need at least 4 points (2 per segment)")
    model = SingleCpModel()
    f = model.change_prior_f
    logw = np.full(n, -np.inf)
    logw[0] = n * math.log1p(-f) + _no_change_log_likelihood(window, model, mode, rng, floor)
    for i in range(2, n - 1):
        logw[i] = (math.log(f) + (n - 1) * math.log1p(-f)
                   + _split_log_likelihood_var(window, i, mode, rng, floor))
    probs = _normalize_log_weights(logw)
    return float(probs[0]), ProbabilityVector(values=probs[1:])


def _split_log_likelihood_var(
    window: np.ndarray,
    i: int,
    mode: EstimationMode,
    rng: np.random.Generator | None,
    floor: float,
) -> float:
    """Log-likelihood of the window split at i, each segment with the mean
    and variance estimated (or drawn) from it alone."""
    pre_stats = GaussianSegmentStats.from_data(window[:i])
    post_stats = GaussianSegmentStats.from_data(window[i:])
    pre = estimate_draw(pre_stats, mode, rng=rng, floor=floor)
    post = estimate_draw(post_stats, mode, rng=rng, floor=floor)
    return log_likelihood_segment(
        pre_stats, GaussianParams(pre.mu, math.sqrt(pre.sigma2))
    ) + log_likelihood_segment(post_stats, GaussianParams(post.mu, math.sqrt(post.sigma2)))


# -- one benchmark trial ---------------------------------------------------


def run_trial(
    spec: ScenarioSpec,
    detector,
    threshold_h: float,
    rng: np.random.Generator,
) -> TrialRecord:
    """Feed one trial's stream into a fresh detector until alarm or cutoff."""
    t0, xs = generate_trial_data(spec, rng)
    for k, x in enumerate(xs, start=1):
        try:
            detector.observe(x)
            g = detector.decision_g()
        except Exception as exc:
            raise RuntimeError(f"detector failed at step {k} of trial (t0={t0})") from exc
        if g >= threshold_h:
            return TrialRecord(t0, k)
    return TrialRecord(t0, None)


def dense_table(tables) -> np.ndarray:
    """Row j is ``weights[j] * post * row_scale[j]``, but for the rows listed
    in ``exact``, which are the matching rows of ``exact_rows``."""
    dense = tables.weights * tables.post * tables.row_scale[:, None]
    dense[tables.exact] = tables.exact_rows
    return dense
