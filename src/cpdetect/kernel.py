"""Incremental estimation of last / second-to-last changepoint probabilities.

For a series observed so far, the detector maintains

* ``p_last[i]``   -- probability that the most recent changepoint is at i,
* ``p_second[i]`` -- probability that the second-to-last changepoint is at i,
* ``p_hzero``     -- probability that fewer than two changepoints occurred.

The two vectors are coupled:

    p_last[i]   = P(i | fewer than two) * p_hzero
                  + sum_{j<i} P(i | second-to-last at j) * p_second[j]
    p_second[i] = sum_{k>i} P_k(i) * p_last[k]

where P(i | second-to-last at j) is the exactly-one-changepoint posterior on
the suffix window after j, P(i | fewer than two) is the zero-or-one posterior
on the full window, and P_k(i) is the p_last vector that was computed when
only k points had been seen (memoized, looked up rather than recomputed).
Each arriving point triggers an update of the conditional tables followed by
a fixed number of Jacobi sweeps warm-started from the previous solution.
The per-window posteriors in :mod:`cpdetect.single_change` serve as the
reference implementation the tables are tested against.

Per-step cost at n points, by mode:

* Known sigma, plug-in means: the tables factor.  With
  a[j, i] = -css(j, i) / 2 sigma^2 for the pre-change segment (j, i] and
  b[i] = -css(i, n) / 2 sigma^2 for the post-change one, row j of
  P(i | second-to-last at j) is softmax_i(a[j, i] + b[i]).  The matrix
  E = exp(a) is fixed once column i exists, so it is cached and grows by
  one O(n) column per step; only exp(b) is new.  The row normalisers
  Z = E exp(b) and the p_last update ((p_second / Z)^T E) * exp(b) are two
  n x n matrix-vector products, plus a third for the memo lookup.  A row
  whose Z underflows is recomputed in log space at O(n).
* Estimated sigma, plug-in means: the window (j, n] of row j has n - j
  points whatever the split i, so with T = css(j, i) + css(i, n) and an
  unbinding variance floor, row j is proportional to
  (T / min_i T) ** (-(n - j) / 2).  css(j, i) is cached like E above, and
  each step makes one fused pass over the upper triangle, a block of rows
  at a time: O(n^2 / 2) time with one (n + 1) x (n + 1) array of weights.
  Rows where the floor binds take the full log-likelihood.  The p_last
  update is then one n x n matrix-vector product, plus the memo lookup.
* Posterior sampling, or per-segment variances: the dense tables are
  rebuilt every step, O(n^2) time spread over about fifteen temporary
  (n + 1) x (n + 1) arrays.

``window_cap`` freezes hypotheses older than the cap; it does not reduce
any of these costs.

A snapshot (:meth:`CppState.to_json`) is one JSON object.  The series,
p_last, p_second and the history of every P_k, n(n+1)/2 values, are base64
strings of little-endian float64: about 10.7 bytes per history entry, and a
restore is bit-exact.  Snapshots of any other format, such as the older
one that wrote JSON lists, are rejected.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gaussian_stats import (
    DEFAULT_FLOOR_SCALE,
    LOG_2PI,
    EstimationMode,
    PrefixStats,
    variance_floor,
)
from .single_change import ProbabilityVector, SingleCpModel


@dataclass(frozen=True)
class CppConfig:
    """Detector configuration.

    ``model`` carries what is known a priori (mu0, sigma, the change prior
    f); ``estimation_mode`` selects plug-in estimates versus posterior draws
    for unknown parameters; ``variance_change`` switches the split likelihood
    to per-segment variances; ``window_cap``, when set, freezes hypotheses
    older than the cap.  The cap does not bound per-step time or memory,
    which still grow with the series.
    """

    model: SingleCpModel = field(default_factory=SingleCpModel)
    jacobi_iterations: int = 1
    estimation_mode: EstimationMode = EstimationMode.PLUG_IN
    variance_change: bool = False
    window_cap: int | None = None
    floor_scale: float = DEFAULT_FLOOR_SCALE

    def __post_init__(self):
        if self.jacobi_iterations < 1:
            raise ValueError("jacobi_iterations must be >= 1")
        if self.window_cap is not None and self.window_cap < 4:
            raise ValueError("window_cap must be >= 4")
        if self.variance_change and (self.model.mu0 is not None or self.model.sigma is not None):
            raise ValueError(
                "variance_change estimates every segment's mean and variance; "
                "it cannot use a known mu0 or sigma"
            )


def _table_path(config: CppConfig) -> str:
    """How the config's tables are built: "factored" (known sigma, plug-in
    means), "fused" (estimated sigma, plug-in means) or "dense"."""
    if config.estimation_mode is not EstimationMode.PLUG_IN or config.variance_change:
        return "dense"
    return "factored" if config.model.sigma is not None else "fused"


@dataclass
class ConditionalTables:
    """Everything one Jacobi sweep needs, for a window of n points.

    Arrays are indexed by absolute position (index 0 unused).
    ``last_given_second[j, i]`` is the exactly-one posterior on the suffix
    window after j; ``last_given_hzero[i]`` (with residual
    ``none_given_hzero``) is the zero-or-one posterior on the full window;
    ``memo[k, i]`` holds the stored p_last row from step k.
    """

    n: int
    lo: int
    last_given_hzero: np.ndarray
    none_given_hzero: float
    last_given_second: np.ndarray
    memo: np.ndarray

    def last_from_second(self, p_second: np.ndarray) -> np.ndarray:
        """sum_j p_second[j] * last_given_second[j]."""
        return self.last_given_second.T @ p_second

    def second_row(self, j: int) -> np.ndarray:
        """Row j of last_given_second."""
        return self.last_given_second[j]


#: A factored row whose normaliser Z_j falls below this is recomputed in log
#: space.  Above it, every term carrying more than 1e-16 of Z_j is at least
#: 1e-296, so both of its factors in (0, 1] are normal doubles.
_MIN_ROW_NORM = 1e-280


@dataclass
class FactoredTables:
    """The tables of a known-sigma, plug-in config, in factored form.

    Row j of ``last_given_second`` is ``pre[j] * post * row_scale[j]``:
    ``pre`` is the cached exp(-css(j, i) / 2 sigma^2), ``post`` holds
    exp(b - max b) on the columns in use, and ``row_scale`` holds 1 / Z_j on
    the rows in use.  Rows listed in ``exact`` underflowed; they have
    ``row_scale`` 0 and are stored whole in ``exact_rows``.
    """

    n: int
    lo: int
    last_given_hzero: np.ndarray
    none_given_hzero: float
    pre: np.ndarray
    post: np.ndarray
    row_scale: np.ndarray
    exact: np.ndarray
    exact_rows: np.ndarray
    memo: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def last_given_second(self) -> np.ndarray:
        """The dense (n+1, n+1) table, built on demand."""
        dense = self.pre * self.post * self.row_scale[:, None]
        dense[self.exact] = self.exact_rows
        return dense

    def last_from_second(self, p_second: np.ndarray) -> np.ndarray:
        """sum_j p_second[j] * last_given_second[j], as one matvec."""
        out = ((p_second * self.row_scale) @ self.pre) * self.post
        if self.exact.size:
            out += p_second[self.exact] @ self.exact_rows
        return out

    def second_row(self, j: int) -> np.ndarray:
        """Row j of last_given_second, built alone."""
        hit = np.flatnonzero(self.exact == j)
        if hit.size:
            return self.exact_rows[hit[0]]
        return self.pre[j] * self.post * self.row_scale[j]


@dataclass
class FusedTables:
    """The tables of an estimated-sigma, plug-in config, from one fused pass.

    Row j of ``last_given_second`` is ``weights[j] * row_scale[j]``: the
    unnormalised weights of the rows in use, and 1 / Z_j on those rows.
    Rows where the variance floor binds are stored normalised, with
    ``row_scale`` 1.
    """

    n: int
    lo: int
    last_given_hzero: np.ndarray
    none_given_hzero: float
    weights: np.ndarray
    row_scale: np.ndarray
    memo: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def last_given_second(self) -> np.ndarray:
        """The dense (n+1, n+1) table, built on demand."""
        return self.weights * self.row_scale[:, None]

    def last_from_second(self, p_second: np.ndarray) -> np.ndarray:
        """sum_j p_second[j] * last_given_second[j], as one matvec."""
        return (p_second * self.row_scale) @ self.weights

    def second_row(self, j: int) -> np.ndarray:
        """Row j of last_given_second, built alone."""
        return self.weights[j] * self.row_scale[j]


def _grown(buf: np.ndarray, used: int, need: int, fill: float = 0.0) -> np.ndarray:
    """``buf`` if it has ``need`` rows and columns; else a square buffer at
    least twice as large, set to ``fill`` but for a copy of the leading
    used x used block of ``buf``."""
    if buf.shape[0] >= need:
        return buf
    cap = max(2 * buf.shape[0], need)
    # np.zeros maps pages lazily, so the part of a triangular buffer that is
    # never written costs neither time nor memory
    grown = np.zeros((cap, cap)) if fill == 0.0 else np.full((cap, cap), fill)
    grown[:used, :used] = buf[:used, :used]
    return grown


#: Columns per block when a cache fills several columns at once, as it does
#: on the first observation after a restore.
_CACHE_BLOCK_COLS = 64


class CssCache:
    """C[j, i] = css(j, i) for 0 <= j < i, +inf elsewhere.

    css(j, i) is the centered sum of squares of the segment (j, i].  Column
    i depends only on the points up to i, so the cache grows by one O(n)
    column per observation.  The +inf below the diagonal masks it for
    free: every entry there maps to a weight of 0.
    """

    fill = np.inf

    def __init__(self):
        self._buf = np.full((8, 8), self.fill)
        self._n = 0

    def _entries(self, css: np.ndarray) -> np.ndarray:
        return css

    def extend(self, S: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Add the columns up to the last prefix sum; return the (n+1, n+1) cache."""
        n = len(S) - 1
        self._buf = _grown(self._buf, self._n + 1, n + 1, self.fill)
        for i0 in range(self._n + 1, n + 1, _CACHE_BLOCK_COLS):
            i1 = min(i0 + _CACHE_BLOCK_COLS, n + 1)
            # columns i0 <= i < i1 over the rows j < i1 - 1.  Column i holds
            # only the rows j < i: the triangle j >= i, which a single column
            # does not have, is computed with m = 1 and then set back to fill.
            rows = i1 - 1
            m = np.maximum(np.arange(i0, i1) - np.arange(rows, dtype=float)[:, None], 1.0)
            s = S[i0:i1] - S[:rows, None]
            css = np.maximum((Q[i0:i1] - Q[:rows, None]) - s * s / m, 0.0)
            block = self._buf[:rows, i0:i1]
            block[...] = self._entries(css)
            if i1 - i0 > 1:
                block[i0:][np.tri(rows - i0, i1 - i0, dtype=bool)] = self.fill
        self._n = n
        return self._buf[: n + 1, : n + 1]


class ExpCssCache(CssCache):
    """E[j, i] = exp(-css(j, i) / 2 sigma^2) for 0 <= j < i, zero elsewhere.

    Every entry lies in [0, 1], and E[j, j + 1] is 1 up to rounding, so no
    row needs an offset against underflow.
    """

    fill = 0.0

    def __init__(self, sigma: float):
        super().__init__()
        self._two_sigma2 = 2.0 * (sigma * sigma)

    def _entries(self, css: np.ndarray) -> np.ndarray:
        return np.exp(-css / self._two_sigma2)


def _new_cache(config: CppConfig) -> CssCache | None:
    """The column cache the config's table path extends, if any."""
    path = _table_path(config)
    if path == "factored":
        return ExpCssCache(config.model.sigma)
    if path == "fused":
        return CssCache()
    return None


def _rowwise_softmax(logw: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Exponentiate and normalize each row over its valid entries."""
    out = np.zeros_like(logw)
    masked = np.where(valid, logw, -np.inf)
    rowmax = masked.max(axis=1, keepdims=True)
    ok = np.isfinite(rowmax[:, 0])
    if not ok.any():
        return out
    w = np.exp(masked[ok] - rowmax[ok])
    w[~valid[ok]] = 0.0
    out[ok] = w / w.sum(axis=1, keepdims=True)
    return out


def _softmax(logw: np.ndarray) -> np.ndarray:
    m = logw.max()
    w = np.exp(logw - m)
    return w / w.sum()


def build_conditional_tables(
    prefix: PrefixStats,
    config: CppConfig,
    rng: np.random.Generator,
    floor: float,
    lo: int = 0,
    cache: CssCache | None = None,
) -> ConditionalTables | FactoredTables | FusedTables:
    """Conditional changepoint posteriors for every suffix window at once.

    ``lo`` restricts attention to positions > lo (used by window capping);
    with lo = 0 the full series is covered.  A plug-in config without
    per-segment variances gets :class:`FactoredTables` (known sigma) or
    :class:`FusedTables` (estimated sigma), extending ``cache`` (a fresh
    one if None) to the prefix.
    """
    n = len(prefix)
    S, Q = prefix.arrays()
    path = _table_path(config)
    if path != "dense":
        if cache is None:
            cache = _new_cache(config)
        build = _factored_tables if path == "factored" else _fused_tables
        return build(n, lo, S, Q, config, rng, floor, cache)
    model = config.model
    sample = config.estimation_mode is EstimationMode.POSTERIOR_SAMPLE

    pos = np.arange(n + 1)
    # post-change segment (i, n] per split i
    m_post = (n - pos).astype(float)
    mp_post = np.maximum(m_post, 1.0)
    s_post = S[n] - S
    css_post = np.maximum((Q[n] - Q) - s_post * s_post / mp_post, 0.0)

    # pre-change segment (j, i] per (j, i)
    J = pos[:, None]
    I = pos[None, :]
    m_pre = (I - J).astype(float)
    mp_pre = np.maximum(m_pre, 1.0)
    s_pre = S[I] - S[J]
    css_pre = np.maximum((Q[I] - Q[J]) - s_pre * s_pre / mp_pre, 0.0)

    valid = (J >= lo) & (J <= n - 2) & (I > J) & (I <= n - 1)
    if config.variance_change:
        valid &= (m_pre >= 2) & (m_post[None, :] >= 2)

    if config.variance_change:
        logw = _loglik_two_variances(
            m_pre, css_pre, m_post[None, :] * np.ones_like(m_pre), css_post[None, :], valid,
            sample, rng, floor,
        )
    elif model.sigma is not None:
        sigma2 = model.sigma * model.sigma
        quad_pre = css_pre.copy()
        quad_post = np.broadcast_to(css_post[None, :], css_pre.shape).copy()
        if sample:
            quad_pre += sigma2 * rng.standard_normal(css_pre.shape) ** 2
            quad_post += sigma2 * rng.standard_normal(css_pre.shape) ** 2
        logw = (
            -0.5 * (m_pre + m_post[None, :]) * (LOG_2PI + math.log(sigma2))
            - (quad_pre + quad_post) / (2.0 * sigma2)
        )
    else:
        m_win = m_pre + m_post[None, :]
        dof = np.maximum(m_win - 2.0, 1.0)
        css_tot = css_pre + css_post[None, :]
        if sample:
            s2 = css_tot / np.maximum(rng.chisquare(dof), 1e-300)
        else:
            s2 = css_tot / dof
        s2 = np.maximum(s2, floor)
        quad = css_tot.copy()
        if sample:
            quad = quad + s2 * (
                rng.standard_normal(s2.shape) ** 2 + rng.standard_normal(s2.shape) ** 2
            )
        logw = -0.5 * m_win * (LOG_2PI + np.log(s2)) - quad / (2.0 * s2)

    last_given_second = _rowwise_softmax(logw, valid & (J >= 1))

    c0, p_none = _hzero_posterior(n, lo, S, Q, config, rng, floor)

    return ConditionalTables(
        n=n,
        lo=lo,
        last_given_hzero=c0,
        none_given_hzero=p_none,
        last_given_second=last_given_second,
        memo=np.zeros((0, 0)),  # filled in by the caller that owns the history
    )


def _factored_tables(n, lo, S, Q, config: CppConfig, rng, floor, cache: ExpCssCache):
    two_sigma2 = 2.0 * (config.model.sigma * config.model.sigma)
    pre = cache.extend(S, Q)
    pos = np.arange(n + 1)
    s_post = S[n] - S
    css_post = np.maximum((Q[n] - Q) - s_post * s_post / np.maximum(n - pos, 1.0), 0.0)

    # rows j in [first, n-2] use the columns (j, n-1]
    first = max(lo, 1)
    rows = np.arange(first, n - 1)
    post = np.zeros(n + 1)
    row_scale = np.zeros(n + 1)
    exact = rows
    if rows.size:
        b = -css_post[first + 1 : n] / two_sigma2
        post[first + 1 : n] = np.exp(b - b.max())
        z = pre[first : n - 1] @ post
        ok = z >= _MIN_ROW_NORM
        row_scale[rows[ok]] = 1.0 / z[ok]
        exact = rows[~ok]

    c0, p_none = _hzero_posterior(n, lo, S, Q, config, rng, floor)
    return FactoredTables(
        n=n,
        lo=lo,
        last_given_hzero=c0,
        none_given_hzero=p_none,
        pre=pre,
        post=post,
        row_scale=row_scale,
        exact=exact,
        exact_rows=_log_space_rows(exact, n, S, Q, css_post, two_sigma2),
    )


def _log_space_rows(rows, n, S, Q, css_post, two_sigma2):
    """Rows of last_given_second for known sigma, computed as a softmax of logs."""
    if not rows.size:
        return np.zeros((0, n + 1))
    i = np.arange(n + 1)[None, :]
    j = rows[:, None]
    s = S[i] - S[j]
    css = np.maximum((Q[i] - Q[j]) - s * s / np.maximum(i - j, 1.0), 0.0)
    logw = -(css + css_post[None, :]) / two_sigma2
    return _rowwise_softmax(logw, (i > j) & (i <= n - 1))


#: Rows per block of the fused pass.  A block spans the columns right of its
#: first row, so it computes about block^2 / 2 entries of the empty lower
#: triangle; a taller block makes fewer numpy calls per step.
_FUSED_BLOCK_ROWS = 64


def _fused_tables(n, lo, S, Q, config: CppConfig, rng, floor, cache: CssCache):
    css_pre = cache.extend(S, Q)
    pos = np.arange(n + 1)
    s_post = S[n] - S
    css_post = np.maximum((Q[n] - Q) - s_post * s_post / np.maximum(n - pos, 1.0), 0.0)

    # rows j in [max(lo, 1), n-2] use the columns (j, n-1].  Row j's window (j, n]
    # has n - j points whatever the split, so with T = css_pre + css_post
    # and s^2 = T / dof above the floor, its log-likelihood is
    # -(n - j) / 2 * log T plus a constant of the row.
    weights = np.zeros((n + 1, n + 1))
    row_scale = np.zeros(n + 1)
    first = max(lo, 1)
    for r0 in range(first, n - 2, _FUSED_BLOCK_ROWS):
        r1 = min(r0 + _FUSED_BLOCK_ROWS, n - 2)
        m = (n - pos[r0:r1]).astype(float)
        dof = np.maximum(m - 2.0, 1.0)
        w = weights[r0:r1, r0 + 1 : n]
        np.add(css_pre[r0:r1, r0 + 1 : n], css_post[r0 + 1 : n], out=w)  # T, inf where i <= j
        t_min = w.min(axis=1)
        floored = t_min / dof < floor
        exact_rows = None
        if floored.any():
            exact_rows = _floored_rows(w[floored], m[floored], dof[floored], floor)
            w[floored] = 1.0
            t_min[floored] = 1.0
        np.divide(w, t_min[:, None], out=w)
        np.log(w, out=w)
        w *= -0.5 * m[:, None]
        np.exp(w, out=w)
        row_scale[r0:r1] = 1.0 / w.sum(axis=1)
        if exact_rows is not None:
            w[floored] = exact_rows
            row_scale[r0:r1][floored] = 1.0
    if n - 2 >= first:
        # the window of row n-2 holds two points, so its one split has weight 1
        weights[n - 2, n - 1] = 1.0
        row_scale[n - 2] = 1.0

    c0, p_none = _hzero_posterior(n, lo, S, Q, config, rng, floor)
    return FusedTables(
        n=n,
        lo=lo,
        last_given_hzero=c0,
        none_given_hzero=p_none,
        weights=weights,
        row_scale=row_scale,
    )


def _floored_rows(t, m, dof, floor):
    """Rows of last_given_second for estimated sigma where the variance floor
    binds, from T = css_pre + css_post (inf where i <= j)."""
    valid = np.isfinite(t)
    t = np.where(valid, t, 0.0)
    s2 = np.maximum(t / dof[:, None], floor)
    logw = -0.5 * m[:, None] * (LOG_2PI + np.log(s2)) - t / (2.0 * s2)
    return _rowwise_softmax(logw, valid)


def _loglik_two_variances(m_pre, css_pre, m_post, css_post, valid, sample, rng, floor):
    """Split log-likelihood with separately estimated variance per segment."""

    def seg_ll(m, css):
        dof = np.maximum(m - 1.0, 1.0)
        if sample:
            s2 = css / np.maximum(rng.chisquare(dof), 1e-300)
        else:
            s2 = css / dof
        s2 = np.maximum(s2, floor)
        quad = css.copy()
        if sample:
            quad = quad + s2 * rng.standard_normal(np.shape(s2)) ** 2
        return -0.5 * m * (LOG_2PI + np.log(s2)) - quad / (2.0 * s2)

    out = seg_ll(m_pre, css_pre) + seg_ll(m_post, css_post)
    return np.where(valid, out, -np.inf)


def _hzero_posterior(n, lo, S, Q, config: CppConfig, rng, floor):
    """Zero-or-one-changepoint posterior on the window (lo, n]."""
    model = config.model
    sample = config.estimation_mode is EstimationMode.POSTERIOR_SAMPLE
    m_win = n - lo
    c0 = np.zeros(n + 1)
    if m_win < 1:
        return c0, 1.0

    i = np.arange(n + 1)
    m0 = (i - lo).astype(float)
    mp0 = np.maximum(m0, 1.0)
    s0 = S - S[lo]
    css0 = np.maximum((Q - Q[lo]) - s0 * s0 / mp0, 0.0)
    ybar0 = s0 / mp0
    m1 = (n - i).astype(float)
    mp1 = np.maximum(m1, 1.0)
    s1 = S[n] - S
    css1 = np.maximum((Q[n] - Q) - s1 * s1 / mp1, 0.0)

    split_ok = (i > lo) & (i <= n - 1)
    if config.variance_change:
        split_ok &= (m0 >= 2) & (m1 >= 2)

    # whole-window stats for the no-change hypothesis
    w_m = float(m_win)
    w_s = S[n] - S[lo]
    w_css = max((Q[n] - Q[lo]) - w_s * w_s / w_m, 0.0)

    if config.variance_change:
        split_ll = _loglik_two_variances(
            m0[None, :], css0[None, :], m1[None, :], css1[None, :],
            split_ok[None, :], sample, rng, floor,
        )[0]
        dof_w = max(w_m - 1.0, 1.0)
        s2w = w_css / rng.chisquare(dof_w) if sample else w_css / dof_w
        s2w = max(s2w, floor)
        quad_w = w_css + (s2w * rng.standard_normal() ** 2 if sample else 0.0)
        h0_ll = -0.5 * w_m * (LOG_2PI + math.log(s2w)) - quad_w / (2.0 * s2w)
    else:
        if model.sigma is not None:
            s2 = np.full(n + 1, model.sigma * model.sigma)
            s2w = s2[0]
        else:
            dof = np.maximum(m_win - 2.0, 1.0)
            css_tot = css0 + css1
            s2 = css_tot / np.maximum(rng.chisquare(dof * np.ones(n + 1)), 1e-300) if sample \
                else css_tot / dof
            s2 = np.maximum(s2, floor)
            dof_w = max(w_m - 1.0, 1.0)
            s2w = w_css / rng.chisquare(dof_w) if sample else w_css / dof_w
            s2w = max(s2w, floor)

        if model.mu0 is not None:
            quad0 = css0 + m0 * (model.mu0 - ybar0) ** 2
            quad_w = w_css + w_m * (model.mu0 - w_s / w_m) ** 2
        else:
            quad0 = css0 + (s2 * rng.standard_normal(n + 1) ** 2 if sample else 0.0)
            quad_w = w_css + (s2w * rng.standard_normal() ** 2 if sample else 0.0)
        quad1 = css1 + (s2 * rng.standard_normal(n + 1) ** 2 if sample else 0.0)

        split_ll = -0.5 * (m0 + m1) * (LOG_2PI + np.log(s2)) - (quad0 + quad1) / (2.0 * s2)
        h0_ll = -0.5 * w_m * (LOG_2PI + math.log(s2w)) - quad_w / (2.0 * s2w)

    f = model.change_prior_f
    log_prior_split = math.log(f) + (m_win - 1) * math.log1p(-f)
    log_prior_h0 = m_win * math.log1p(-f)

    if not split_ok.any():
        return c0, 1.0
    logw = np.concatenate(
        [[log_prior_h0 + h0_ll], log_prior_split + split_ll[split_ok]]
    )
    probs = _softmax(logw)
    c0[split_ok] = probs[1:]
    return c0, float(probs[0])


def jacobi_step(
    p_last: np.ndarray, p_second: np.ndarray, tables: ConditionalTables
) -> tuple[np.ndarray, np.ndarray, float]:
    """One simultaneous substitution of the coupled probability system.

    Both updates read only the incoming vectors (Jacobi, not Gauss-Seidel).
    Outputs are clamped to [0, 1]; the returned scalar is the updated
    probability that fewer than two changepoints occurred.
    """
    if len(p_last) != tables.n + 1 or len(p_second) != tables.n + 1:
        raise ValueError(
            f"state vectors of length {len(p_last)}/{len(p_second)} do not "
            f"match tables for n={tables.n}"
        )
    p_hzero = float(np.clip(1.0 - p_second.sum(), 0.0, 1.0))
    new_last = tables.last_given_hzero * p_hzero + tables.last_from_second(p_second)
    k = tables.memo.shape[0]
    new_second = np.zeros_like(p_second)
    if k > 0:
        new_second[: tables.memo.shape[1]] = tables.memo.T @ p_last[:k]
    new_last = np.clip(new_last, 0.0, 1.0)
    new_second = np.clip(new_second, 0.0, 1.0)
    new_hzero = float(np.clip(1.0 - new_second.sum(), 0.0, 1.0))
    return new_last, new_second, new_hzero


class PosteriorMatrix:
    """Triangular store of the p_last vector computed at every step."""

    def __init__(self):
        self._buf = np.zeros((8, 8))
        self._n = 0

    @classmethod
    def from_packed(cls, values: np.ndarray, n: int) -> "PosteriorMatrix":
        """The store of rows k = 1..n, each holding P_k(1..k), from
        :meth:`packed`'s n(n+1)/2 values."""
        store = cls()
        cap = max(8, 1 << n.bit_length())  # the size n appends would have grown it to
        store._buf = np.zeros((cap, cap))
        store._buf[1 : n + 1, 1 : n + 1][np.tri(n, dtype=bool)] = values
        store._n = n
        return store

    def __len__(self) -> int:
        return self._n

    def append(self, row: np.ndarray) -> None:
        """Store the step-k row (length k+1, index 0 unused)."""
        k = len(row) - 1
        if k != self._n + 1:
            raise ValueError(f"expected row for step {self._n + 1}, got {k}")
        self._buf = _grown(self._buf, self._n + 1, k + 1)
        self._buf[k, : k + 1] = row
        self._n = k

    def row(self, k: int) -> np.ndarray:
        """P_k(i) for i = 1..k, as stored when point k arrived."""
        if not (1 <= k <= self._n):
            raise IndexError(f"no row for step {k}")
        return self._buf[k, 1 : k + 1]

    def matrix(self, n: int) -> np.ndarray:
        """Read-only (n+1, n+1) view; entry [k, i] is P_k(i)."""
        return self._buf[: n + 1, : n + 1]

    def packed(self) -> np.ndarray:
        """Rows k = 1..n, each holding P_k(1..k), end to end: n(n+1)/2 values."""
        n = self._n
        return self._buf[1 : n + 1, 1 : n + 1][np.tri(n, dtype=bool)]


#: Version of the :meth:`CppState.to_json` snapshot layout.
SNAPSHOT_FORMAT = 2


def _pack(values) -> str:
    """Float values as base64 of their little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _unpack(doc: dict, name: str, size: int | None = None) -> np.ndarray:
    """The float64 values that :func:`_pack` wrote as ``doc[name]``; a
    ValueError unless there are ``size`` of them (when given)."""
    data = base64.b64decode(doc[name], validate=True)
    expected = len(data) // 8 if size is None else size
    if len(data) != 8 * expected:
        raise ValueError(
            f"snapshot {name!r} holds {len(data)} bytes, not {expected} float64 values"
        )
    return np.frombuffer(data, dtype="<f8").astype(float)


class CppState:
    """Full incremental detector state; feed points with :meth:`observe`."""

    def __init__(self, config: CppConfig | None = None, rng=None):
        self.config = config if config is not None else CppConfig()
        if isinstance(rng, (int, np.integer)) or rng is None:
            rng = np.random.default_rng(rng)
        self.rng = rng
        self.series: list[float] = []
        self.prefix = PrefixStats()
        self.history = PosteriorMatrix()
        self.p_last = np.zeros(1)
        self.p_second = np.zeros(1)
        self.p_hzero = 1.0
        # not serialized: it is a function of the series, and the first
        # observe after a restore refills it column by column
        self._cache = _new_cache(self.config)

    # -- core update ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.series)

    def _floor(self) -> float:
        total = self.prefix.total()
        gv = total.sample_variance if total.n >= 2 else None
        return variance_floor(gv, self.config.floor_scale)

    def _active_lo(self) -> int:
        cap = self.config.window_cap
        if cap is None:
            return 0
        return max(0, self.n - cap)

    def observe(self, x: float) -> None:
        """Advance the detector by one observation."""
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("observation must be finite")
        self.prefix.append(x)
        self.series.append(x)
        n = self.n
        if n == 1:
            self.p_last = np.zeros(2)
            self.p_second = np.zeros(2)
            self.p_hzero = 1.0
            self.history.append(self.p_last)
            return

        lo = self._active_lo()
        tables = build_conditional_tables(
            self.prefix, self.config, self.rng, self._floor(), lo=lo, cache=self._cache
        )
        tables.memo = self.history.matrix(n - 1)

        # warm start: previous solution extended by a zero for the new index
        pl = np.append(self.p_last, 0.0)
        ps = np.append(self.p_second, 0.0)
        frozen_last = pl[: lo + 1].copy()
        frozen_second = ps[: lo + 1].copy()
        bucket = float(frozen_second.sum())
        for _ in range(self.config.jacobi_iterations):
            pl, ps, ph = jacobi_step(pl, ps, tables)
            if lo > 0:
                # frozen hypotheses keep their mass; the aggregated old
                # second-changepoint mass feeds p_last via the oldest
                # computable conditional row
                pl += tables.second_row(lo) * bucket
                pl[: lo + 1] = frozen_last
                ps[: lo + 1] = frozen_second
                ph = float(np.clip(1.0 - ps.sum(), 0.0, 1.0))
        self.p_last, self.p_second, self.p_hzero = pl, ps, ph
        self.history.append(pl)

    # -- queries -------------------------------------------------------

    def query_p_last(self) -> ProbabilityVector:
        """Current last-changepoint probabilities (sub-normalized)."""
        if self.n < 1:
            raise ValueError("no observations yet")
        return ProbabilityVector(values=self.p_last[1:].copy(), start=1)

    def query_p_second(self) -> tuple[ProbabilityVector, float]:
        """Current second-to-last probabilities plus the residual p_hzero."""
        if self.n < 1:
            raise ValueError("no observations yet")
        return ProbabilityVector(values=self.p_second[1:].copy(), start=1), self.p_hzero

    def decision_g(self) -> float:
        """Total probability that any changepoint has occurred so far."""
        if self.n < 1:
            return 0.0
        return float(self.p_last[1:].sum())

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """The state as one JSON object.  The float vectors, and the history
        as rows k = 1..n of P_k(1..k), are base64 strings of little-endian
        float64 (see :data:`SNAPSHOT_FORMAT`), so a restore is bit-exact."""
        cfg = self.config
        doc = {
            "format": SNAPSHOT_FORMAT,
            "series": _pack(self.series),
            "config": {
                "mu0": cfg.model.mu0,
                "sigma": cfg.model.sigma,
                "change_prior_f": cfg.model.change_prior_f,
                "jacobi_iterations": cfg.jacobi_iterations,
                "estimation_mode": cfg.estimation_mode.value,
                "variance_change": cfg.variance_change,
                "window_cap": cfg.window_cap,
                "floor_scale": cfg.floor_scale,
            },
            "posterior_rows": _pack(self.history.packed()),
            "p_last": _pack(self.p_last[1:]),
            "p_second": _pack(self.p_second[1:]),
            "p_hzero": self.p_hzero,
            "rng_state": self.rng.bit_generator.state,
        }
        return json.dumps(doc, default=int)

    @classmethod
    def from_json(cls, text: str) -> "CppState":
        """Restore a :meth:`to_json` snapshot.  Raises ValueError on another
        snapshot format or on vectors whose lengths do not match the series."""
        doc = json.loads(text)
        if doc.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"snapshot format {doc.get('format')!r} is not supported; "
                f"expected {SNAPSHOT_FORMAT}"
            )
        c = doc["config"]
        config = CppConfig(
            model=SingleCpModel(
                mu0=c["mu0"], sigma=c["sigma"], change_prior_f=c["change_prior_f"]
            ),
            jacobi_iterations=c["jacobi_iterations"],
            estimation_mode=EstimationMode(c["estimation_mode"]),
            variance_change=c["variance_change"],
            window_cap=c["window_cap"],
            floor_scale=c["floor_scale"],
        )
        state = cls(config=config)
        state.rng.bit_generator.state = doc["rng_state"]
        state.series = _unpack(doc, "series").tolist()
        n = state.n
        state.prefix = PrefixStats(state.series)
        rows = _unpack(doc, "posterior_rows", n * (n + 1) // 2)
        state.history = PosteriorMatrix.from_packed(rows, n)
        state.p_last = np.concatenate([[0.0], _unpack(doc, "p_last", n)])
        state.p_second = np.concatenate([[0.0], _unpack(doc, "p_second", n)])
        state.p_hzero = float(doc["p_hzero"])
        return state
