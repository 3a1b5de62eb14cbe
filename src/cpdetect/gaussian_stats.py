"""Gaussian log-likelihoods, conjugate posteriors and posterior sampling.

Everything downstream (the changepoint kernel, the GLR baseline, the
benchmark harness) funnels its likelihood arithmetic through this module.
All likelihood work is done in log space; segment likelihoods are computed
in closed form from sufficient statistics (count, sum, sum of squares), so
no raw data needs to be revisited.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

#: Multiplier applied to the global sample variance to obtain the variance
#: floor.  Degenerate variance estimates (runs of identical values, segments
#: with fewer than 2 points) are replaced by the floor instead of collapsing
#: to zero, which would make the likelihood blow up.
DEFAULT_FLOOR_SCALE = 1e-8


class InsufficientDataError(ValueError):
    """Raised when an estimate requires more observations than available."""


class EstimationMode(enum.Enum):
    """How unknown segment parameters are turned into concrete values."""

    PLUG_IN = "plugin"
    POSTERIOR_SAMPLE = "sample"


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

    def merge(self, other: "GaussianSegmentStats") -> "GaussianSegmentStats":
        return GaussianSegmentStats(
            n=self.n + other.n, sum=self.sum + other.sum, sumsq=self.sumsq + other.sumsq
        )

    def __add__(self, other: "GaussianSegmentStats") -> "GaussianSegmentStats":
        return self.merge(other)

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


class PrefixStats:
    """Growable prefix-sum arrays giving O(1) stats for any segment (a, b].

    Stores cumulative count/sum/sumsq, so the total space is linear in the
    number of observations even though every contiguous segment is queryable.
    The sums live in float64 buffers that double when full.
    """

    def __init__(self, data=None):
        self._sum = np.zeros(16)
        self._sumsq = np.zeros(16)
        self._n = 0
        if data is not None:
            for x in np.asarray(data, dtype=float):
                self.append(float(x))

    def __len__(self) -> int:
        return self._n

    def append(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValueError("observation must be finite")
        n = self._n
        # by Cauchy-Schwarz, every squared segment sum is at most m * sumsq
        # <= (n + 1) * Q, so this keeps all of them finite
        if not math.isfinite((n + 1) * (float(self._sumsq[n]) + x * x)):
            raise ValueError(
                f"observation {x!r} is too large: the squares of the series would overflow"
            )
        if n + 1 == len(self._sum):
            self._sum = np.concatenate([self._sum, np.zeros(n + 1)])
            self._sumsq = np.concatenate([self._sumsq, np.zeros(n + 1)])
        self._sum[n + 1] = self._sum[n] + x
        self._sumsq[n + 1] = self._sumsq[n] + x * x
        self._n = n + 1

    def segment(self, a: int, b: int) -> GaussianSegmentStats:
        """Stats of observations a+1 .. b (1-based positions, half-open (a, b])."""
        if not (0 <= a <= b <= len(self)):
            raise IndexError(f"segment ({a}, {b}] out of range 0..{len(self)}")
        return GaussianSegmentStats(
            n=b - a,
            sum=float(self._sum[b] - self._sum[a]),
            sumsq=float(self._sumsq[b] - self._sumsq[a]),
        )

    def arrays(self):
        """Prefix sum / sumsq as read-only views of length n+1 (index 0 is zero)."""
        views = self._sum[: self._n + 1], self._sumsq[: self._n + 1]
        for v in views:
            v.flags.writeable = False
        return views


def variance_floor(global_variance: float | None, scale: float = DEFAULT_FLOOR_SCALE) -> float:
    """Floor for variance estimates; tied to the overall scale of the data."""
    if global_variance is None or not math.isfinite(global_variance) or global_variance <= 0:
        return scale
    return scale * global_variance


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
