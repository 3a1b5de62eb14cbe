"""Monte-Carlo benchmark: detection delay versus false-alarm probability.

Each trial draws a changepoint onset t0 from a geometric distribution,
streams N(mu0, sigma^2) data before the onset and N(mu1, sigma^2) from t0
on, and runs a detector until its decision statistic crosses a threshold.
An alarm at or before t0 is a false alarm; a trial with no alarm by
t0 + horizon goes out of bounds.  Sweeping the threshold maps out the
trade-off curve; delays are aggregated with a trimmed mean so that
out-of-bounds trials (treated as infinite delay) and lucky near-t0 alarms
do not dominate.

Per-trial random streams are spawned deterministically from the scenario
seed, so repeated runs are bit-identical and both detector kinds consume
element-wise identical data.
"""

from __future__ import annotations

import enum
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .gaussian_stats import EstimationMode, check_sigma, real_number
from .glr import GlrConfig, GlrState, glr_decision
from .kernel import CppConfig, CppState, SingleCpModel

#: Threshold grids used when the caller does not supply any.  The
#: probability-scale detector alarms on total changepoint mass; the GLR
#: statistic lives on a log-likelihood scale, hence the geometric grid.
CPP_DEFAULT_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2)) + (0.97, 0.99)
GLR_DEFAULT_THRESHOLDS = tuple(np.round(np.geomspace(0.8, 25.0, 18), 3))

DEFAULT_ALPHA = 0.05
DEFAULT_TRIM = 0.05


class DetectorKind(enum.Enum):
    CPP = "cpp"
    GLR = "glr"


class InvalidAggregateError(ValueError):
    """Too many out-of-bounds trials for the trimmed mean to be meaningful."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark scenario (mean shift in Gaussian noise)."""

    mu0: float = 0.0
    mu1: float = 1.0
    sigma: float = 1.0
    rho: float = 0.02
    horizon_after_t0: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("mu0", "mu1", "sigma", "rho"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must be in (0, 1)")
        check_sigma(self.sigma)
        h = self.horizon_after_t0
        if not isinstance(h, numbers.Integral) or isinstance(h, bool) or h < 1:
            raise ValueError(f"horizon_after_t0 must be an integer >= 1, not {h!r}")
        object.__setattr__(self, "horizon_after_t0", int(h))


@dataclass(frozen=True)
class DetectorParams:
    """Minor parameters of the two detectors."""

    change_prior_f: float = 0.005
    nu_min: float = 0.5
    estimation_mode: EstimationMode = EstimationMode.PLUG_IN
    jacobi_iterations: int = 1


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial at one threshold; t_a None means no alarm."""

    t0: int
    t_a: int | None
    false_alarm: bool
    out_of_bounds: bool

    @property
    def delay(self) -> float:
        """t_a - t0 + 1; inf when the trial went out of bounds."""
        if self.out_of_bounds:
            return math.inf
        return self.t_a - self.t0 + 1


@dataclass(frozen=True)
class SweepRow:
    detector: str
    h: float
    alpha: float
    mean_delay: float
    n_trials: int
    n_oob: int


@dataclass(frozen=True)
class SweepResult:
    detector: DetectorKind
    spec: ScenarioSpec
    rows: tuple[SweepRow, ...]


def sample_t0(rho: float, rng: np.random.Generator) -> int:
    """Geometric onset time, support {1, 2, ...}, mean 1/rho."""
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must be in (0, 1)")
    return int(rng.geometric(rho))


def make_detector(kind: DetectorKind, spec: ScenarioSpec,
                  params: DetectorParams = DetectorParams(), rng=None):
    """Fresh detector with the scenario's known mu0/sigma baked in."""
    if kind is DetectorKind.CPP:
        config = CppConfig(
            model=SingleCpModel(
                mu0=spec.mu0, sigma=spec.sigma, change_prior_f=params.change_prior_f
            ),
            jacobi_iterations=params.jacobi_iterations,
            estimation_mode=params.estimation_mode,
        )
        return CppState(config=config, rng=rng)
    return GlrState()


def _decision_fn(kind: DetectorKind, detector, spec: ScenarioSpec, params: DetectorParams):
    """The detector's decision statistic as a function of no arguments.  A
    GLR config is built once here, not once per step; the call goes through
    this module's ``glr_decision`` so that it can be rebound."""
    if kind is DetectorKind.CPP:
        return detector.decision_g
    cfg = GlrConfig(mu0=spec.mu0, sigma=spec.sigma, nu_min=params.nu_min)
    return lambda: glr_decision(detector, cfg)


def _trial_streams(spec: ScenarioSpec, trial_index: int):
    """Deterministic (data_rng, detector_rng) pair for one trial."""
    child = np.random.SeedSequence(spec.seed, spawn_key=(trial_index,))
    data_ss, det_ss = child.spawn(2)
    return np.random.default_rng(data_ss), np.random.default_rng(det_ss)


def generate_trial_data(spec: ScenarioSpec, rng: np.random.Generator):
    """(t0, observations 1..t0+horizon); the shift applies from t0 onward."""
    t0 = sample_t0(spec.rho, rng)
    total = t0 + spec.horizon_after_t0
    xs = rng.standard_normal(total) * spec.sigma + spec.mu0
    xs[t0 - 1 :] += spec.mu1 - spec.mu0
    return t0, xs


def _trial_alarm_times(spec, kind, params, thresholds, trial_index):
    """First crossing time per threshold, from one pass over the stream."""
    data_rng, det_rng = _trial_streams(spec, trial_index)
    t0, xs = generate_trial_data(spec, data_rng)
    detector = make_detector(kind, spec, params, rng=det_rng)
    decision = _decision_fn(kind, detector, spec, params)
    order = np.argsort(thresholds)
    sorted_h = np.asarray(thresholds, dtype=float)[order]
    t_a = [None] * len(thresholds)
    pending = 0  # thresholds below this index have already alarmed
    for k, x in enumerate(xs, start=1):
        try:
            detector.observe(x)
            g = decision()
        except Exception as exc:
            where = f"detector failed at step {k} of trial {trial_index} (t0={t0})"
            if isinstance(exc, ValueError):  # the detector rejected the trial's data
                raise ValueError(f"{where}: {exc}") from exc
            raise RuntimeError(where) from exc
        while pending < len(sorted_h) and g >= sorted_h[pending]:
            t_a[order[pending]] = k
            pending += 1
        if pending == len(sorted_h):
            break
    return t0, t_a


def trimmed_mean_delay(records, trim_fraction: float = DEFAULT_TRIM) -> float:
    """Trimmed mean of delays over the non-false-alarm records.

    Out-of-bounds records sort as the largest delays; there must be few
    enough of them that the trim removes them all.
    """
    survivors = [r for r in records if not r.false_alarm]
    if len(survivors) < 20:
        raise InvalidAggregateError(
            f"only {len(survivors)} surviving trials; need at least 20"
        )
    n_oob = sum(r.out_of_bounds for r in survivors)
    n_trim = int(trim_fraction * len(survivors))
    if n_oob > n_trim:
        raise InvalidAggregateError(
            f"{n_oob} out-of-bounds trials exceed the trim budget of {n_trim}"
        )
    delays = np.sort(np.array([r.delay for r in survivors]))
    kept = delays[n_trim : len(delays) - n_trim] if n_trim else delays
    return float(kept.mean())


def threshold_sweep(
    spec: ScenarioSpec,
    detector_kind: DetectorKind,
    thresholds=None,
    n_trials: int = 1000,
    params: DetectorParams = DetectorParams(),
    trim_fraction: float = DEFAULT_TRIM,
    jobs: int = 1,
) -> SweepResult:
    """One sweep row per threshold, all thresholds sharing the same trials.

    A trial's data stream depends only on (spec.seed, trial index), so
    sweeps for different detector kinds are data-matched.  Rows whose
    out-of-bounds count exceeds the trim budget, or with fewer than 20
    surviving trials, get a NaN mean delay.  The trials run in
    min(jobs, n_trials) worker processes, or in this one if that is 1.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs!r}")
    if thresholds is None:
        thresholds = (
            CPP_DEFAULT_THRESHOLDS if detector_kind is DetectorKind.CPP
            else GLR_DEFAULT_THRESHOLDS
        )
    thresholds = [float(h) for h in thresholds]
    if not thresholds:
        raise ValueError("thresholds must be non-empty")

    trial = partial(_trial_alarm_times, spec, detector_kind, params, thresholds)
    workers = min(jobs, n_trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(trial, range(n_trials), chunksize=8))
    else:
        outcomes = list(map(trial, range(n_trials)))

    rows = []
    for hi, h in enumerate(thresholds):
        records = [
            TrialRecord(
                t0=t0,
                t_a=t_a[hi],
                false_alarm=t_a[hi] is not None and t_a[hi] <= t0,
                out_of_bounds=t_a[hi] is None,
            )
            for t0, t_a in outcomes
        ]
        alpha = sum(r.false_alarm for r in records) / n_trials
        try:
            delay = trimmed_mean_delay(records, trim_fraction)
        except InvalidAggregateError:
            delay = math.nan
        rows.append(
            SweepRow(
                detector=detector_kind.value,
                h=h,
                alpha=alpha,
                mean_delay=delay,
                n_trials=n_trials,
                n_oob=sum(r.out_of_bounds for r in records),
            )
        )
    return SweepResult(detector=detector_kind, spec=spec, rows=tuple(rows))


def interpolate_at_alpha(sweep: SweepResult, alpha: float = DEFAULT_ALPHA) -> float:
    """Mean delay at a target false-alarm probability, linearly interpolated."""
    pts = sorted(
        (row.alpha, row.mean_delay) for row in sweep.rows if math.isfinite(row.mean_delay)
    )
    if not pts:
        raise ValueError("sweep has no rows with a defined mean delay")
    alphas = [a for a, _ in pts]
    if not (alphas[0] <= alpha <= alphas[-1]):
        raise ValueError(
            f"alpha={alpha} outside the sweep's range [{alphas[0]}, {alphas[-1]}]"
        )
    return float(np.interp(alpha, alphas, [d for _, d in pts]))


@dataclass(frozen=True)
class SigmaRow:
    """Both detectors' delays at a fixed alpha for one noise level.  A delay
    that cannot be interpolated is NaN, and ``note`` says why."""

    sigma: float
    cpp_delay: float
    glr_delay: float
    note: str = ""

    def __iter__(self):  # unpacks as (sigma, cpp_delay, glr_delay)
        return iter((self.sigma, self.cpp_delay, self.glr_delay))


def sigma_sweep(
    base_spec: ScenarioSpec,
    sigmas,
    n_trials: int = 500,
    alpha: float = DEFAULT_ALPHA,
    params: DetectorParams = DetectorParams(),
    jobs: int = 1,
) -> list[SigmaRow]:
    """Delay of both detectors at a fixed alpha, across noise levels."""
    out = []
    for sigma in sigmas:
        spec = replace(base_spec, sigma=float(sigma))
        delays, notes = [], []
        for kind in (DetectorKind.CPP, DetectorKind.GLR):
            sweep = threshold_sweep(spec, kind, n_trials=n_trials, params=params, jobs=jobs)
            try:
                delays.append(interpolate_at_alpha(sweep, alpha))
            except ValueError as exc:
                delays.append(math.nan)
                notes.append(f"{kind.value}: {exc}")
        out.append(SigmaRow(float(sigma), *delays, note="; ".join(notes)))
    return out
