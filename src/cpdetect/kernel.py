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
The test suite's ``tests/oracles.py`` evaluates the same per-window
posteriors split by split, as the reference the tables are tested against.

Every mode builds one table type, :class:`ConditionalTables`, whose row j
is weights[j] * post * row_scale[j] but for the rows that product cannot
hold.  Each path lists those in ``exact``, with row_scale 0, and
:func:`build_conditional_tables` stores them whole, from the full formula
with css(j, i) taken from the prefix sums, at O(n) each.
Per-step cost at n points, by mode:

* Known sigma, plug-in means: the tables factor.  With
  a[j, i] = -css(j, i) / 2 sigma^2 for the pre-change segment (j, i] and
  b[i] = -css(i, n) / 2 sigma^2 for the post-change one, row j of
  P(i | second-to-last at j) is softmax_i(a[j, i] + b[i]).  The weights
  E = exp(a) are fixed once column i exists, so they are cached and grow by
  one O(n) column per step; only post = exp(b) is new.  The row normalisers
  Z = E exp(b) and the p_last update ((p_second / Z)^T E) * exp(b) are two
  matrix-vector products, plus a third for the memo lookup.  A row
  whose Z underflows is stored whole.
* Estimated sigma, plug-in means: the window (j, n] of row j has n - j
  points whatever the split i, so with T = css(j, i) + css(i, n) and an
  unbinding variance floor, row j is proportional to
  (T / min_i T) ** (-(n - j) / 2).  css(j, i) is cached like E above, and
  each step makes one fused pass over the upper triangle, a block of B rows
  at a time: O(n^2 / 2) time.  Each block runs in one contiguous B x n
  work array, allocated fresh each step, O(B n) memory, with the cells at
  or below the diagonal, which all lie in the block's leading square, masked
  so that every log and exp sees a finite value; the finished rows are
  written once into the step's fresh (n + 1) x (n + 1) array of weights.
  Rows where the floor binds are stored whole.  The p_last update is then
  one matrix-vector product, plus the memo lookup.
* Posterior sampling, or per-segment variances: the weights are the dense
  tables, rebuilt every step from the cached css(j, i), O(n^2) time spread
  over several temporary (n + 1) x (n + 1) arrays.

Every path extends one column cache with :func:`_css`, the one centred sum of
squares, so each step computes css(i, n), the post-change segment of every
split, once: the newest cache column, kept whole before the factored cache
takes its exp.  The zero-or-one posterior P(i | fewer than two) reads that
vector and evaluates only the admissible splits: O(n) per step.

The dense rows, the rows stored whole and the zero-or-one posterior score
splits with one function, :func:`_split_loglik`.  Sampling, it draws the
variance's chi-square, then a normal per segment of unknown mean, pre-change
first (per-segment variances: the pre-change chi-square and normal, then the
post-change ones); the zero-or-one posterior's no-change draws come last.

The weights are strictly upper triangular and the memo lower triangular, so
above B = ``_PRODUCT_BLOCK_ROWS`` points each matrix-vector product reads only
the filled triangle, in blocks of B rows: about n^2 / 2 + n B / 2 cells, not (n + 1)^2.
Up to B points, each is one product over the whole operand.

The state stores p_second and the history of every P_k; p_last is the
newest history row and p_hzero is 1 - sum(p_second), clamped to [0, 1].
:class:`CppState`'s constructor alone puts a state together, from its
config, rng, series, history and p_second, so a restore is one constructor
call.  The variance floor of an estimated sigma is no part of the state:
:func:`build_conditional_tables` derives it from the prefix sums it reads.
The history and the column cache are triangles in capacity-doubled square
buffers, mapped in base pages, not huge pages, so that only the pages that
hold part of a triangle become resident.
A snapshot (:meth:`CppState.to_json`) is one JSON object.  The series,
p_second and the history, n(n+1)/2 values, are base64 strings of
little-endian float64: about 10.7 bytes per history entry, and a restore is
bit-exact.  Snapshots of any other format are rejected.
"""

from __future__ import annotations

import base64
import json
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .gaussian_stats import (DEFAULT_FLOOR_SCALE, LOG_2PI, EstimationMode, PrefixStats,
                             check_sigma, positive_int, real_number)


@dataclass(frozen=True)
class SingleCpModel:
    """What is known a priori about the window.

    ``mu0`` / ``sigma`` set to None mean the parameter is estimated from the
    data; a float means it is known.  ``change_prior_f`` is the per-step
    prior probability of a changepoint used by the zero-or-one posterior.
    Each number is stored as a Python float, so a numpy float32 computes and
    snapshots as the float64 of its value.
    """

    mu0: float | None = None
    sigma: float | None = None
    change_prior_f: float = 0.005

    def __post_init__(self):
        for name in ("mu0", "sigma", "change_prior_f"):
            value = getattr(self, name)
            if value is not None or name == "change_prior_f":
                object.__setattr__(self, name, real_number(name, value))
        if not (0.0 < self.change_prior_f < 1.0):
            raise ValueError("change_prior_f must be in (0, 1)")
        if self.sigma is not None:
            check_sigma(self.sigma)


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


@dataclass(frozen=True)
class CppConfig:
    """Detector configuration.

    ``model`` carries what is known a priori (mu0, sigma, the change prior
    f); ``estimation_mode`` selects plug-in estimates versus posterior draws
    for unknown parameters; ``variance_change`` switches the split likelihood
    to per-segment variances; ``jacobi_iterations`` is the number of
    warm-started sweeps per observation.
    """

    model: SingleCpModel = field(default_factory=SingleCpModel)
    jacobi_iterations: int = 1
    estimation_mode: EstimationMode = EstimationMode.PLUG_IN
    variance_change: bool = False

    def __post_init__(self):
        object.__setattr__(self, "jacobi_iterations",
                           positive_int("jacobi_iterations", self.jacobi_iterations))
        if not isinstance(self.estimation_mode, EstimationMode):
            raise ValueError(f"estimation_mode must be an EstimationMode, "
                             f"not {self.estimation_mode!r}")
        if not isinstance(self.variance_change, bool):
            raise ValueError(f"variance_change must be a bool, not {self.variance_change!r}")
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

    Arrays are indexed by absolute position (index 0 unused).  Row j of
    the conditional table, the exactly-one posterior on the suffix window
    after j, is ``weights[j] * post * row_scale[j]``, but for the rows that
    product cannot hold: on every path those are listed in ``exact``, have
    ``row_scale`` 0, and are stored whole in ``exact_rows``.
    ``post`` is ones but with known sigma, and ``row_scale`` ones on the
    dense path.  ``last_given_hzero[i]`` is the zero-or-one posterior on the
    whole window; ``memo[k, i]`` holds the stored p_last row from step k.
    """

    n: int
    last_given_hzero: np.ndarray
    weights: np.ndarray
    post: np.ndarray
    row_scale: np.ndarray
    memo: np.ndarray
    exact: np.ndarray
    exact_rows: np.ndarray

    def last_from_second(self, p_second: np.ndarray) -> np.ndarray:
        """sum_j p_second[j] * (row j of the table), by row blocks above B points."""
        v = p_second * self.row_scale
        if self.n <= _PRODUCT_BLOCK_ROWS:
            out = v @ self.weights
        else:
            out = np.zeros(self.n + 1)
            for r0, r1 in _row_blocks(0, self.n, _PRODUCT_BLOCK_ROWS):
                out[r0 + 1 :] += v[r0:r1] @ self.weights[r0:r1, r0 + 1 :]
        out *= self.post
        if self.exact.size:
            out += p_second[self.exact] @ self.exact_rows
        return out


#: B, the rows per block of a step's triangular matrix-vector products.
_PRODUCT_BLOCK_ROWS = 160


def _row_blocks(start: int, stop: int, rows: int):
    """(r0, r1) for each block of ``rows`` rows in start..stop-1."""
    return [(r0, min(r0 + rows, stop)) for r0 in range(start, stop, rows)]


#: The ``exact`` of a table with no rows stored whole.
_NO_ROWS = np.zeros(0, dtype=np.intp)

#: A factored row whose normaliser Z_j falls below this is stored whole, from
#: the full log-likelihood.  Above it, every term carrying more than 1e-16 of
#: Z_j is at least 1e-296, so both of its factors in (0, 1] are normal doubles.
_MIN_ROW_NORM = 1e-280


#: numpy advises huge pages for every array of this many bytes or more, its
#: own threshold, so a square buffer this large is mapped by _square_zeros
_HUGE_PAGE_BYTES = 1 << 22


def _square_zeros(cap: int) -> np.ndarray:
    """A zeroed cap x cap buffer whose pages become resident only when written.

    np.zeros maps its pages lazily, but from 4 MiB numpy advises huge pages,
    and a 2 MiB page makes the unwritten cells around a triangle resident.
    So a buffer that large comes from a private anonymous mapping advised
    against huge pages; private, so a forked child's writes stay its own.
    """
    size = cap * cap * 8
    if size < _HUGE_PAGE_BYTES or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros((cap, cap))
    region = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    region.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(region, dtype=float).reshape(cap, cap)


def _grown(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buf`` if it has ``need`` rows and columns; else a zeroed square buffer
    of ``buf``'s capacity doubled until ``need`` fits, but for a copy of its
    leading used x used block.  So a buffer grown at once, as a restore grows
    one, gets the capacity that growing it step by step gives."""
    cap = buf.shape[0]
    if cap >= need:
        return buf
    while cap < need:
        cap *= 2
    grown = _square_zeros(cap)
    grown[:used, :used] = buf[:used, :used]
    return grown


def _css(s, q, m):
    """Centred sum of squares of segments of ``m`` points whose values sum to
    ``s`` and their squares to ``q``; 0 for an empty segment.  The arguments
    broadcast."""
    return np.maximum(q - s * s / np.maximum(m, 1.0), 0.0)


class CssCache:
    """C[j, i] = css(j, i) for 0 <= j < i, zero elsewhere.

    css(j, i) is the centered sum of squares of the segment (j, i].  Column
    i depends only on the points up to i, so the cache grows by one O(n)
    column per observation, or, after a restore, by every column at once,
    in a buffer that :func:`_grown` sizes either way.  Nothing writes below
    the diagonal, which the fused pass and the dense rows mask, so only pages
    that hold part of the upper triangle become resident.  The newest column,
    css(i, n) for i = 0..n, which the table build and the zero-or-one
    posterior read, is also kept whole as ``css_post``.
    """

    def __init__(self):
        self._buf = np.zeros((8, 8))
        self._n = 0
        self.css_post = np.zeros(1)

    def _store(self, css: np.ndarray, out: np.ndarray) -> None:
        """Write the entries for ``css`` into ``out``."""
        out[:] = css

    def extend(self, S: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Add the columns up to the last prefix sum; return the (n+1, n+1) cache."""
        n = len(S) - 1
        self._buf = _grown(self._buf, self._n + 1, n + 1)
        for i in range(self._n + 1, n + 1):
            # the segments (j, i] for j < i, holding i - j points, and (i, i]
            m = np.arange(float(i), -1.0, -1.0)
            self.css_post = _css(S[i] - S[: i + 1], Q[i] - Q[: i + 1], m)
            self._store(self.css_post[:i], self._buf[:i, i])
        self._n = n
        return self._buf[: n + 1, : n + 1]


class ExpCssCache(CssCache):
    """E[j, i] = exp(-css(j, i) / 2 sigma^2) for 0 <= j < i, zero elsewhere.

    Every entry lies in [0, 1], and E[j, j + 1] is 1 up to rounding, so no
    row needs an offset against underflow.
    """

    def __init__(self, sigma: float):
        super().__init__()
        self._two_sigma2 = 2.0 * (sigma * sigma)

    def _store(self, css: np.ndarray, out: np.ndarray) -> None:
        np.exp(css / -self._two_sigma2, out=out)


def _new_cache(config: CppConfig) -> CssCache:
    """The column cache the config's table path extends."""
    return ExpCssCache(config.model.sigma) if _table_path(config) == "factored" else CssCache()


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


def _gauss_loglik(m, log_s2, s2, quad):
    """Log-likelihood of m Gaussian points with variance s2 whose squared
    deviations from the mean sum to ``quad``.  The caller passes log(s2), so
    a scalar path keeps ``math.log`` and an array path ``np.log``."""
    return -0.5 * m * (LOG_2PI + log_s2) - quad / (2.0 * s2)


def _series_floor(S: np.ndarray, Q: np.ndarray) -> float:
    """The variance floor of the series whose prefix sums are ``S`` and ``Q``:
    DEFAULT_FLOOR_SCALE times its sample variance, or times 1 when that is 0
    or the series has fewer than two points."""
    n = len(S) - 1
    variance = _css(S[n], Q[n], n) / (n - 1) if n >= 2 else 0.0
    return DEFAULT_FLOOR_SCALE * (variance if variance > 0 else 1.0)


def build_conditional_tables(
    prefix: PrefixStats,
    config: CppConfig,
    rng: np.random.Generator,
    cache: CssCache | None = None,
    memo: np.ndarray | None = None,
) -> ConditionalTables:
    """Conditional changepoint posteriors for every suffix window at once.

    ``prefix`` holds the series' sums about its reference point, which must be
    the known mu0 when the config has one, as ``PrefixStats(ref=mu0)`` takes
    them; with an unknown mean any point serves, and :class:`CppState` takes
    the first observation.  With sigma estimated, the variance floor comes
    from the whole series' sums, :func:`_series_floor`.  ``cache``, the
    config's column cache (a fresh one if None), is extended to the prefix.
    ``memo`` is the history of p_last rows from steps 1..n-1 (empty if None).
    Every table covers the whole series, and the rows stored whole are
    computed here for every path.
    """
    n = len(prefix)
    S, Q = prefix.arrays()
    floor = _series_floor(S, Q) if config.model.sigma is None else None
    path = _table_path(config)
    cache = _new_cache(config) if cache is None else cache
    cached = cache.extend(S, Q)
    if path == "dense":
        weights = _formula_rows(np.arange(n + 1), n, cached, cache.css_post, config, rng, floor)
        rows = weights, np.ones(n + 1), np.ones(n + 1), _NO_ROWS
    elif path == "factored":
        rows = _factored_rows(n, cached, cache.css_post, config)
    else:
        rows = _fused_rows(n, cached, cache.css_post, floor)
    weights, post, row_scale, exact = rows
    exact_rows = np.zeros((0, n + 1))
    if exact.size:
        # css(j, i) from the sums, since the factored cache holds its exp
        J = exact[:, None]
        css_pre = _css(S - S[J], Q - Q[J], np.arange(n + 1.0) - J)
        exact_rows = _formula_rows(exact, n, css_pre, cache.css_post, config, rng, floor)
    c0 = _hzero_posterior(n, S, Q, cache.css_post, config, rng, floor)
    memo = np.zeros((0, 0)) if memo is None else memo
    return ConditionalTables(n, c0, weights, post, row_scale, memo, exact, exact_rows)


def _formula_rows(rows, n, css_pre, css_post, config: CppConfig, rng, floor):
    """Rows ``rows`` of the conditional table from the full formula:
    :func:`_split_loglik` on each row's window (j, n], normalised over its
    admissible splits.  This is the dense build, and on the other paths the
    one source of the rows stored whole.  ``css_pre`` holds css(j, i) per row
    j and column i = 0..n; its cells with i <= j are masked.  Posterior
    sampling draws arrays of shape (len(rows), n + 1).
    """
    J = rows[:, None]
    I = np.arange(n + 1)
    # pre-change segment (j, i] per (j, i); the post-change one is (i, n]
    m_pre = (I - J).astype(float)
    valid = (J >= 1) & (J <= n - 2) & (I > J) & (I <= n - 1)
    if config.variance_change:
        valid &= (m_pre >= 2) & (n - I >= 2)
    logw = _split_loglik((n - J).astype(float), m_pre, css_pre, css_post[I], config, rng, floor)
    return _rowwise_softmax(logw, valid)


def _factored_rows(n, weights, css_post, config: CppConfig):
    two_sigma2 = 2.0 * (config.model.sigma * config.model.sigma)
    # rows j in [1, n-2] use the columns (j, n-1]
    post = np.zeros(n + 1)
    row_scale = np.zeros(n + 1)
    exact = _NO_ROWS
    if n > 2:
        b = css_post[2:n] / -two_sigma2
        b -= b.max()
        np.exp(b, out=post[2:n])
        if n <= _PRODUCT_BLOCK_ROWS:
            z = weights[1 : n - 1] @ post
        else:
            z = np.concatenate([weights[r0:r1, r0 + 1 :] @ post[r0 + 1 :]
                                for r0, r1 in _row_blocks(1, n - 1, _PRODUCT_BLOCK_ROWS)])
        ok = z >= _MIN_ROW_NORM
        np.divide(1.0, z, out=row_scale[1 : n - 1], where=ok)
        if not ok.all():
            exact = np.arange(1, n - 1)[~ok]
    return weights, post, row_scale, exact


#: Rows per block of the fused pass.  A block spans the columns right of its
#: first row, so it computes about block^2 / 2 entries of the empty lower
#: triangle; a taller block makes fewer numpy calls per step.
_FUSED_BLOCK_ROWS = 64


def _fused_rows(n, css_pre, css_post, floor):
    """The product form of the estimated-sigma tables, in one fused pass over
    the upper triangle; ``exact`` lists the rows where the variance floor
    binds, whose log-likelihood this form cannot express."""
    pos = np.arange(n + 1)

    # rows j in [1, n-2] use the columns (j, n-1].  Row j's window (j, n]
    # has n - j points whatever the split, so with T = css_pre + css_post
    # and s^2 = T / dof above the floor, its log-likelihood is
    # -(n - j) / 2 * log T plus a constant of the row.
    weights = np.zeros((n + 1, n + 1))
    row_scale = np.zeros(n + 1)
    exact = []
    rows = _FUSED_BLOCK_ROWS
    # A block of rows r0..r1-1 over the columns r0+1..n-1 runs in one
    # contiguous work array.  Its cells with i <= j all lie in the leading
    # square, strictly below that square's diagonal; they are set to +inf for
    # the row min, to the row min for the divide, and to 0 for the row sum,
    # so no non-finite value reaches a log or an exp.
    below = np.tri(rows, rows, -1, dtype=bool)
    flat = np.empty(rows * max(n - 2, 0))
    m_all = (n - pos).astype(float)
    dof_all = np.maximum(m_all - 2.0, 1.0)
    for r0, r1 in _row_blocks(1, n - 2, rows):
        m, dof = m_all[r0:r1], dof_all[r0:r1]
        w = flat[: (r1 - r0) * (n - r0 - 1)].reshape(r1 - r0, n - r0 - 1)
        square, mask = w[:, : r1 - r0], below[: r1 - r0, : r1 - r0]
        # T; a copy of the strided cache rows, then an add in place, is faster
        # than one add that reads them
        np.copyto(w, css_pre[r0:r1, r0 + 1 : n])
        np.add(w, css_post[r0 + 1 : n], out=w)
        np.copyto(square, np.inf, where=mask)
        t_min = w.min(axis=1)
        # rows where the floor binds are stored whole; ones here keep their logs finite
        floored = t_min / dof < floor
        if floored.any():
            exact.append(pos[r0:r1][floored])
            w[floored] = 1.0
            t_min[floored] = 1.0
        np.copyto(square, t_min[:, None], where=mask)
        np.divide(w, t_min[:, None], out=w)
        np.log(w, out=w)
        w *= -0.5 * m[:, None]
        np.exp(w, out=w)
        np.copyto(square, 0.0, where=mask)
        row_scale[r0:r1] = 1.0 / w.sum(axis=1)
        weights[r0:r1, r0 + 1 : n] = w
    exact = np.concatenate(exact) if exact else _NO_ROWS
    row_scale[exact] = 0.0
    if n > 2:
        # the window of row n-2 holds two points, so its one split has weight 1
        weights[n - 2, n - 1] = 1.0
        row_scale[n - 2] = 1.0
    return weights, np.ones(n + 1), row_scale, exact


def _split_loglik(m_win, m_pre, css_pre, css_post, config: CppConfig, rng, floor,
                  quad_pre=None):
    """Log-likelihood of a window of ``m_win`` points split after its first ``m_pre``.

    ``css_pre`` and ``css_post`` are the segments' centred sums of squares;
    ``quad_pre``, when given, is the pre-change segment's squared deviations
    from a known mu0, and with a known sigma ``m_pre`` and ``css_pre`` then
    go unread.  The variance is sigma^2 if known, else one pooled estimate
    with m_win - 2 degrees of freedom or, with per-segment variances, one
    per segment with m - 1; each estimate is floored.  The arguments
    broadcast to the shape of the result.  Posterior sampling draws arrays
    of that shape: the variance's chi-square, which replaces its degrees of
    freedom, then a normal z per segment of unknown mean, pre-change first,
    which adds s2 z^2 to its css; with per-segment variances, the pre-change
    segment's chi-square and normal, then the post-change segment's.
    """
    sample = config.estimation_mode is EstimationMode.POSTERIOR_SAMPLE
    if sample:
        shape = np.broadcast(m_win, m_pre, css_post).shape

    def variance(css, dof):
        chi = np.maximum(rng.chisquare(dof, shape), 1e-300) if sample else dof
        return np.maximum(css / chi, floor)

    def quad(css, s2):
        return css + s2 * rng.standard_normal(shape) ** 2 if sample else css

    if config.variance_change:
        def segment(m, css):
            s2 = variance(css, np.maximum(m - 1.0, 1.0))
            return _gauss_loglik(m, np.log(s2), s2, quad(css, s2))

        return segment(m_pre, css_pre) + segment(m_win - m_pre, css_post)
    if config.model.sigma is not None:
        s2 = config.model.sigma * config.model.sigma
        log_s2 = math.log(s2)
    else:
        s2 = variance(css_pre + css_post, np.maximum(m_win - 2.0, 1.0))
        log_s2 = np.log(s2)
    quad_pre = quad(css_pre, s2) if quad_pre is None else quad_pre
    return _gauss_loglik(m_win, log_s2, s2, quad_pre + quad(css_post, s2))


def _hzero_posterior(n, S, Q, css_post, config: CppConfig, rng, floor):
    """Zero-or-one-changepoint posterior on the window (0, n].

    :func:`_split_loglik` scores a split at every position 0..n, reading
    css(i, n) from ``css_post``, which the table build already has, so a
    step costs O(n); the admissible splits, 0 < i < n or with per-segment
    variances 2 <= i <= n - 2, are kept.  With a known mu0 the squared
    deviations from it of (0, i] and of the window are prefix sums.
    Posterior sampling draws the no-change hypothesis's scalars after the
    splits' arrays: a chi-square if sigma is estimated, a normal if the mean is.
    """
    model = config.model
    sample = config.estimation_mode is EstimationMode.POSTERIOR_SAMPLE
    # the segments (0, i]: their sizes and css, the window's at i = n, are
    # read only for a variance estimate or an unknown mean
    m_pre = css_pre = None
    if model.sigma is None or model.mu0 is None:
        m_pre = np.arange(n + 1.0)
        css_pre = _css(S, Q, m_pre)
    quad_pre = None if model.mu0 is None else Q
    split_ll = _split_loglik(n, m_pre, css_pre, css_post, config, rng, floor, quad_pre)

    # no change: the one segment (0, n]
    if model.sigma is not None:
        s2w = model.sigma * model.sigma
    else:
        dof_w = max(n - 1.0, 1.0)
        s2w = max(css_pre[n] / (rng.chisquare(dof_w) if sample else dof_w), floor)
    quad_w = Q[n] if model.mu0 is not None else css_pre[n]
    if model.mu0 is None and sample:
        quad_w += s2w * rng.standard_normal() ** 2
    h0_ll = _gauss_loglik(n, math.log(s2w), s2w, quad_w)

    # splits a <= i < b
    a, b = (2, n - 1) if config.variance_change else (1, n)
    c0 = np.zeros(n + 1)
    if b <= a:
        return c0
    # prior f (1 - f)^(n - 1) per split, (1 - f)^n for no change
    f = model.change_prior_f
    logw = np.empty(b - a + 1)
    logw[0] = n * math.log1p(-f) + h0_ll
    np.add(split_ll[a:b], math.log(f) + (n - 1) * math.log1p(-f), out=logw[1:])
    logw -= logw.max()
    np.exp(logw, out=logw)
    logw /= logw.sum()
    c0[a:b] = logw[1:]
    return c0


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
    p_hzero = _unit(1.0 - float(p_second.sum()))
    new_last = tables.last_from_second(p_second)
    new_last += tables.last_given_hzero * p_hzero
    memo, k = tables.memo, tables.memo.shape[0]  # memo row k holds P_k(i) for i <= k
    new_second = np.zeros(tables.n + 1)
    if k > _PRODUCT_BLOCK_ROWS:
        for r0, r1 in _row_blocks(0, k, _PRODUCT_BLOCK_ROWS):
            new_second[:r1] += p_last[r0:r1] @ memo[r0:r1, :r1]
    elif k > 0:
        new_second[: memo.shape[1]] = memo.T @ p_last[:k]
    _clamp_unit(new_last)
    _clamp_unit(new_second)
    return new_last, new_second, _unit(1.0 - float(new_second.sum()))


def _unit(x: float) -> float:
    """x clamped to [0, 1]."""
    return min(max(x, 0.0), 1.0)


def _clamp_unit(a: np.ndarray) -> None:
    """Clamp ``a`` to [0, 1] in place."""
    np.maximum(a, 0.0, out=a)
    np.minimum(a, 1.0, out=a)


class PosteriorMatrix:
    """Triangular store of the p_last vector computed at every step: rows
    k = 1..n, each holding P_k(1..k), built from :meth:`packed`'s n(n+1)/2
    values (empty by default) in a buffer that :func:`_grown` sizes."""

    def __init__(self, values=(), n: int = 0):
        self._buf = _grown(np.zeros((8, 8)), 0, n + 1)
        self._buf[1 : n + 1, 1 : n + 1][np.tri(n, dtype=bool)] = values
        self._n = n

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
        view = self._buf[: n + 1, : n + 1]
        view.flags.writeable = False
        return view

    def packed(self) -> np.ndarray:
        """Rows k = 1..n, each holding P_k(1..k), end to end: n(n+1)/2 values."""
        n = self._n
        return self._buf[1 : n + 1, 1 : n + 1][np.tri(n, dtype=bool)]


#: Version of the :meth:`CppState.to_json` snapshot layout.
SNAPSHOT_FORMAT = 3


def _pack(values) -> str:
    """Float values as base64 of their little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _field(doc: dict, name: str, *types):
    """``doc[name]``, whose JSON type must be one of ``types``; else a ValueError."""
    if name not in doc:
        raise ValueError(f"snapshot has no {name!r}")
    if type(doc[name]) not in types:
        raise ValueError(f"snapshot {name!r} is {type(doc[name]).__name__}, not "
                         + " or ".join(t.__name__ for t in types))
    return doc[name]


def _unpack(doc: dict, name: str, size: int | None = None) -> np.ndarray:
    """The float64 values that :func:`_pack` wrote as ``doc[name]``; a
    ValueError unless there are ``size`` of them (when given)."""
    data = base64.b64decode(_field(doc, name, str), validate=True)
    expected = len(data) // 8 if size is None else size
    if len(data) != 8 * expected:
        raise ValueError(
            f"snapshot {name!r} holds {len(data)} bytes, not {expected} float64 values"
        )
    return np.frombuffer(data, dtype="<f8").astype(float)


def _probabilities(name: str, values):
    """``values`` if every one is finite and in [0, 1]; else a ValueError."""
    if not (np.isfinite(values) & (values >= 0.0) & (values <= 1.0)).all():
        raise ValueError(f"snapshot {name!r} holds a non-finite value or one outside [0, 1]")
    return values


class CppState:
    """Full incremental detector state; feed points with :meth:`observe`.

    ``rng`` is anything :func:`numpy.random.default_rng` takes that draws
    from PCG64, the one bit generator a snapshot restores.  A state that has
    read ``series`` is built whole from it, the :class:`PosteriorMatrix` of
    its n p_last rows, which it takes without a copy, and ``p_second``, n + 1
    values with index 0 unused; by default it has read nothing.
    """

    def __init__(self, config: CppConfig | None = None, rng=None, series=(),
                 history: PosteriorMatrix | None = None, p_second=None):
        self.config = config if config is not None else CppConfig()
        self.rng = np.random.default_rng(rng)
        if not isinstance(self.rng.bit_generator, np.random.PCG64):
            raise ValueError(f"rng draws from {type(self.rng.bit_generator).__name__}, but a "
                             f"snapshot can restore only PCG64")
        self.prefix = PrefixStats(series, ref=self.config.model.mu0)
        self.series: list[float] = np.asarray(series, dtype=float).tolist()
        self.history = PosteriorMatrix() if history is None else history
        self.p_second = np.zeros(1) if p_second is None else np.asarray(p_second, dtype=float)
        if len(self.history) != self.n:
            raise ValueError(f"history has {len(self.history)} rows, not one per point: {self.n}")
        if len(self.p_second) != self.n + 1:
            raise ValueError(f"p_second has {len(self.p_second)} entries, not n + 1: {self.n + 1}")
        # not serialized: a function of the series, which the first observe
        # after a restore refills
        self._cache = _new_cache(self.config)

    # -- core update ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.series)

    @property
    def p_last(self) -> np.ndarray:
        """P_n(i) for i = 0..n, the newest history row, as a read-only view."""
        k = len(self.history)
        return self.history.matrix(k)[k]

    @property
    def p_hzero(self) -> float:
        """The probability that fewer than two changepoints occurred."""
        return _unit(1.0 - float(self.p_second.sum()))

    def observe(self, x: float) -> None:
        """Advance the detector by one observation."""
        x = float(x)
        self.prefix.append(x)
        self.series.append(x)
        n = self.n
        if n == 1:
            self.p_second = np.zeros(2)
            self.history.append(np.zeros(2))
            return

        tables = build_conditional_tables(
            self.prefix, self.config, self.rng, cache=self._cache,
            memo=self.history.matrix(n - 1),
        )

        # warm start: previous solution, p_last being the memo's newest row,
        # extended by a zero for the new index
        pl = np.zeros(n + 1)
        ps = np.zeros(n + 1)
        pl[:n] = tables.memo[n - 1]
        ps[:n] = self.p_second
        for _ in range(self.config.jacobi_iterations):
            pl, ps, _ = jacobi_step(pl, ps, tables)
        self.p_second = ps
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
        return float(self.history.row(self.n).sum())

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
            },
            "posterior_rows": _pack(self.history.packed()),
            "p_second": _pack(self.p_second[1:]),
            "rng_state": self.rng.bit_generator.state,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "CppState":
        """Restore a :meth:`to_json` snapshot, with one constructor call.
        Raises ValueError on a document that is not one: another snapshot
        format, a missing field or one of the wrong type, a config without
        exactly its six keys, vectors whose lengths do not match the series,
        a non-finite value or a probability outside [0, 1]."""
        doc = json.loads(text)
        if type(doc) is not dict:
            raise ValueError(f"snapshot is a JSON {type(doc).__name__}, not an object")
        if doc.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"snapshot format {doc.get('format')!r} is not supported; "
                f"expected {SNAPSHOT_FORMAT}"
            )
        c = _field(doc, "config", dict)
        keys = ("mu0", "sigma", "change_prior_f", "jacobi_iterations", "estimation_mode",
                "variance_change")
        if c.keys() != set(keys):
            raise ValueError(f"snapshot 'config' must hold exactly {', '.join(keys)}, "
                             f"not {', '.join(c)}")
        number = (int, float)
        config = CppConfig(
            model=SingleCpModel(
                mu0=_field(c, "mu0", *number, type(None)),
                sigma=_field(c, "sigma", *number, type(None)),
                change_prior_f=_field(c, "change_prior_f", *number),
            ),
            jacobi_iterations=_field(c, "jacobi_iterations", int),
            estimation_mode=EstimationMode(_field(c, "estimation_mode", str)),
            variance_change=_field(c, "variance_change", bool),
        )
        rng_state = _field(doc, "rng_state", dict)
        rng = np.random.Generator(np.random.PCG64())
        try:
            rng.bit_generator.state = rng_state
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"snapshot 'rng_state' is not a PCG64 state: {exc}") from None
        series = _unpack(doc, "series")
        n = len(series)
        rows = _probabilities("posterior_rows", _unpack(doc, "posterior_rows", n * (n + 1) // 2))
        p_second = _probabilities("p_second", _unpack(doc, "p_second"))
        return cls(config, rng, series, PosteriorMatrix(rows, n), np.concatenate([[0.0], p_second]))
