"""The benchmark's workloads, their inputs, and the checks on their outputs.

Every workload is a loop of units (one stream, or one pass of the reference
sweeps) that runs until the requested seconds have passed.  With tracing on,
units alternate between untraced and traced, so one process yields both the
per-layer spans and the tracing overhead.  The quality anchors come from the
reference sweeps, which the stream workloads run once after their timed loop.
"""

from __future__ import annotations

import functools
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from cpdetect import CppConfig, DetectorKind, ScenarioSpec, SingleCpModel
from cpdetect import harness, kernel
from tracing import Tracer, installed, layer_metrics, patched

#: tolerance of the check p_hzero + sum(p_second) == 1
MASS_TOL = 1e-9
#: fewest units a timed loop runs, whatever --seconds says
MIN_UNITS = 3


@dataclass(frozen=True)
class Size:
    stream_len: int
    window_cap: int  # of stream-capped
    snapshot_every: int  # points between the snapshots of stream-estimated
    snapshot_repeats: int  # timed round trips per probe
    ref_trials: int  # trials of each reference sweep
    check_trials: int  # trials of each mc-sweep check sweep


SIZES = {
    "full": Size(stream_len=600, window_cap=100, snapshot_every=150, snapshot_repeats=3,
                 ref_trials=200, check_trials=200),
    "tiny": Size(stream_len=60, window_cap=20, snapshot_every=20, snapshot_repeats=2,
                 ref_trials=100, check_trials=100),
}


class Checks:
    """Correctness checks made during a run; failures feed error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail() if detail else ''}")


def _in_unit(v: np.ndarray) -> bool:
    return bool(np.all((v >= 0.0) & (v <= 1.0)))


def check_step(state, checks: Checks) -> float:
    """Invariants of the detector output after one observe; returns g."""
    g = state.decision_g()
    p_last = state.query_p_last().values
    p_second, p_hzero = state.query_p_second()
    mass = p_hzero + p_second.values.sum()
    ok = (math.isfinite(g) and _in_unit(p_last) and _in_unit(p_second.values)
          and abs(mass - 1.0) <= MASS_TOL)
    checks.check("step invariants", ok, lambda: f"n={state.n} g={g} mass={mass!r}")
    return g


def _same_state(a, b) -> bool:
    n = a.n
    return (
        a.series == b.series
        and np.array_equal(a.p_last, b.p_last)
        and np.array_equal(a.p_second, b.p_second)
        and a.p_hzero == b.p_hzero
        and np.array_equal(a.history.matrix(n), b.history.matrix(n))
    )


def round_trip(state, checks: Checks):
    """to_json then from_json; returns the snapshot and the restored state."""
    text = state.to_json()
    restored = kernel.CppState.from_json(text)
    checks.check("snapshot restores the state", _same_state(state, restored),
                 lambda: f"n={state.n}")
    return text, restored


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples beyond."""
    xs = sorted(samples)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


# -- streams ---------------------------------------------------------------


def make_stream(seed: int, index: int, n: int, known: bool) -> np.ndarray:
    """n Gaussian points with two mean shifts, drawn from (seed, index).

    With ``known`` the pre-change law is N(0, 1), as the stream-known
    detector assumes; otherwise location and scale are drawn too.
    """
    rng = np.random.default_rng([seed, index])
    mu0, sigma = (0.0, 1.0) if known else (rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0))
    xs = mu0 + sigma * rng.standard_normal(n)
    for at in (rng.integers(n // 4, n // 2), rng.integers(n // 2 + n // 10, 3 * n // 4)):
        xs[at:] += sigma * rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0)
    return xs


def stream_config(workload: str, size: Size) -> CppConfig:
    if workload == "stream-known":
        return CppConfig(model=SingleCpModel(mu0=0.0, sigma=1.0))
    if workload == "stream-estimated":
        return CppConfig(model=SingleCpModel())
    return CppConfig(model=SingleCpModel(), window_cap=size.window_cap)


@dataclass
class StreamRun:
    observe_s: list = field(default_factory=list)
    gs: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)  # point -> snapshot text
    state: object = None


def run_stream(xs: np.ndarray, config: CppConfig, snapshot_at, checks: Checks,
               rng_seed: int) -> StreamRun:
    """One stream through a fresh detector, every step checked.

    After each point in ``snapshot_at`` the detector goes through a snapshot
    round trip and the stream continues on the restored state.
    """
    run = StreamRun()
    state = kernel.CppState(config=config, rng=rng_seed)
    for k, x in enumerate(xs.tolist(), start=1):
        t = time.perf_counter()
        state.observe(x)
        run.observe_s.append(time.perf_counter() - t)
        run.gs.append(check_step(state, checks))
        if k in snapshot_at:
            run.snapshots[k], state = round_trip(state, checks)
    run.state = state
    return run


def _timed_units(seconds: float, trace: bool, unit):
    """Run ``unit(index, tracer_or_None)`` until ``seconds`` have passed.

    Without tracing every unit is untraced; with tracing they alternate,
    starting untraced.  At least three units run, so that a median over
    the untraced ones is not set by one noisy unit.
    """
    tracer = Tracer()
    untraced, traced = [], []
    _warm_allocator()
    start = time.perf_counter()
    index = 0
    while True:
        use_trace = trace and index % 2 == 1
        with installed(tracer) if use_trace else nullcontext():
            out = unit(index, tracer if use_trace else None)
        (traced if use_trace else untraced).append(out)
        index += 1
        if time.perf_counter() - start >= seconds and index >= MIN_UNITS:
            return untraced, traced, tracer


def _warm_allocator() -> None:
    """Allocate and free one block as large as the largest table.

    glibc maps blocks above its threshold fresh from the kernel and raises
    the threshold only once such a block is freed; until then every large
    table of the first unit pays page faults, which made the first stream of
    a run about 12 % slower than the next.
    """
    block = np.empty(4 << 20, dtype=np.uint8)
    del block


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stream_workload(workload, seed, seconds, size: Size, trace, checks):
    known = workload == "stream-known"
    n = size.stream_len
    config = stream_config(workload, size)
    snapshot_at = {n} if known else set(range(size.snapshot_every, n, size.snapshot_every))

    def unit(index, tracer):
        run = run_stream(make_stream(seed, index, n, known), config, snapshot_at, checks, seed)
        if index > 0:
            # only the first stream is compared and probed; the rest would hold memory
            run.state = None
            run.snapshots = {}
        return run

    untraced, traced, tracer = _timed_units(seconds, trace, unit)
    peak_rss = _peak_rss_mb()

    if not known:
        # the first stream again, never snapshotted, must match bit for bit
        first = untraced[0]
        whole = run_stream(make_stream(seed, 0, n, known), config, (), checks, seed)
        checks.check(
            "resumed run bit-identical to uninterrupted run",
            first.gs == whole.gs and _same_state(first.state, whole.state),
        )

    per_point = per_position_ms([r.observe_s for r in untraced])
    samples = len(untraced) * n
    points_per_s = 1e3 * n / sum(per_point)
    metrics = {
        "points_per_s": (points_per_s, "1/s", samples),
        **latency_metrics(per_point, samples),
        "peak_rss_mb": (peak_rss, "MB", 1),
        # here a trial is one stream; a single reference sweep timed after the
        # loop spread 0.26 over ten runs, the streams' own rate half that
        "cpp_trials_per_s": (points_per_s / n, "1/s", len(untraced)),
    }
    sweeps = reference_sweeps(size, None)
    metrics.update(_anchors(sweeps, size))
    notes = {"observe_ms_tail": f"p{tail(per_point)[1]:.2f} of per-position medians",
             "streams": len(untraced)}
    layers = None
    if trace:
        traced_pps = 1e3 * n / sum(per_position_ms([r.observe_s for r in traced]))
        layers = _trace_metrics(tracer, len(traced), points_per_s, traced_pps)
    # the probes time the middle snapshot of the first stream
    probe_input = ProbeInput(untraced[0].snapshots[sorted(snapshot_at)[len(snapshot_at) // 2]],
                             sweeps.glr_rows)
    return metrics, notes, layers, probe_input


def per_position_ms(sample_lists) -> list[float]:
    """Median over a run's units of the time of each observe call, in ms.

    The units of one run make the same sequence of calls (streams of equal
    length, or passes over the same trials) and a call's cost depends on
    its position, so the median at each position keeps a burst of machine
    noise during one unit out of the rate and the latency figures.
    """
    return [1e3 * statistics.median(ts) for ts in zip(*sample_lists)]


def latency_metrics(per_point: list[float], samples: int) -> dict:
    """observe_ms_p50 and observe_ms_tail over per-position medians."""
    return {
        "observe_ms_p50": (statistics.median(per_point), "ms", samples),
        "observe_ms_tail": (tail(per_point)[0], "ms", samples),
    }


# -- Monte-Carlo sweeps ----------------------------------------------------

#: The timed sweeps and the quality anchors use the default scenario at seed
#: 0 with a fixed number of trials: the trial set of the ROADMAP baseline.
#: A trial's cost grows with the cube of its length and onsets are geometric,
#: so from one seed to the next the cost of a 200-trial mix varies by about a
#: quarter and its delay at alpha = 0.05 by about a tenth.  The seed varies
#: the streams and the check sweep of mc-sweep instead.
REFERENCE_SPEC = ScenarioSpec()


class ObserveTimer:
    """Durations of every CppState.observe call while installed."""

    def __init__(self):
        self.seconds: list[float] = []

    def wrap(self, fn):
        samples = self.seconds

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t)

        return timed


@dataclass
class ReferenceSweeps:
    cpp_s: float
    observe_s: list
    rows: str
    glr_rows: str
    delays: tuple


def reference_sweeps(size: Size, tracer) -> ReferenceSweeps:
    """The CPP then the GLR sweep of the reference scenario, and their delays."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    timer = ObserveTimer()
    with span("harness.sweep"), patched(kernel.CppState, "observe", timer.wrap):
        t = time.perf_counter()
        cpp = harness.threshold_sweep(REFERENCE_SPEC, DetectorKind.CPP, n_trials=size.ref_trials)
        cpp_s = time.perf_counter() - t
    with span("harness.sweep"):
        glr_sweep = harness.threshold_sweep(REFERENCE_SPEC, DetectorKind.GLR,
                                            n_trials=size.ref_trials)
    delays = (harness.interpolate_at_alpha(cpp), harness.interpolate_at_alpha(glr_sweep))
    return ReferenceSweeps(cpp_s, timer.seconds, repr(cpp.rows), repr(glr_sweep.rows), delays)


def _anchors(sweeps: ReferenceSweeps, size: Size) -> dict:
    """The quality anchors: both delays at alpha = 0.05."""
    cpp_delay, glr_delay = sweeps.delays
    return {
        "cpp_delay_at_alpha05": (cpp_delay, "steps", size.ref_trials),
        "glr_delay_at_alpha05": (glr_delay, "steps", size.ref_trials),
    }


def checkpoint(checks: Checks) -> str:
    """Snapshot of a harness detector after one reference-scenario stream."""
    _, xs = harness.generate_trial_data(REFERENCE_SPEC, np.random.default_rng(0))
    det = harness.make_detector(DetectorKind.CPP, REFERENCE_SPEC, rng=0)
    for x in xs:
        det.observe(x)
    text, _ = round_trip(det, checks)
    return text


def mc_workload(seed, seconds, size: Size, trace, checks):
    def unit(index, tracer):
        sweeps = reference_sweeps(size, tracer)
        checkpoint(checks)
        return sweeps

    untraced, traced, tracer = _timed_units(seconds, trace, unit)
    peak_rss = _peak_rss_mb()

    first = untraced[0]
    checks.check("reference delays finite", all(math.isfinite(d) for d in first.delays),
                 lambda: repr(first.delays))
    for p in untraced[1:] + traced:
        checks.check("reference sweeps repeat exactly",
                     (p.rows, p.glr_rows, p.delays) == (first.rows, first.glr_rows, first.delays))
    seeded_delays = check_sweeps(ScenarioSpec(seed=seed), size.check_trials, checks)

    per_point = per_position_ms([p.observe_s for p in untraced])
    samples = sum(len(p.observe_s) for p in untraced)
    cpp_s = statistics.median(p.cpp_s for p in untraced)
    points_per_s = len(first.observe_s) / cpp_s
    metrics = {
        "points_per_s": (points_per_s, "1/s", samples),
        **latency_metrics(per_point, samples),
        "peak_rss_mb": (peak_rss, "MB", 1),
        "cpp_trials_per_s": (size.ref_trials / cpp_s, "1/s", len(untraced)),
    }
    metrics.update(_anchors(first, size))
    notes = {"observe_ms_tail": f"p{tail(per_point)[1]:.3f} of per-position medians",
             "passes": len(untraced),
             "seed_check_delays": seeded_delays}
    layers = None
    if trace:
        traced_pps = statistics.median(len(p.observe_s) / p.cpp_s for p in traced)
        layers = _trace_metrics(tracer, len(traced), points_per_s, traced_pps)
    return metrics, notes, layers, ProbeInput(checkpoint(checks), first.glr_rows)


def check_sweeps(spec: ScenarioSpec, trials: int, checks: Checks):
    """Data-matched CPP and GLR sweeps at ``spec``, checked throughout.

    Every CPP step is checked, the data each sweep generated is recorded to
    show both saw the same trials, and both delays at alpha must be finite.
    Returns the two delays.
    """

    def checked(fn):
        @functools.wraps(fn)
        def observe(self, x):
            fn(self, x)
            check_step(self, checks)

        return observe

    def recorder(seen):
        def wrap(fn):
            @functools.wraps(fn)
            def generate(*args, **kwargs):
                t0, xs = fn(*args, **kwargs)
                seen.append((t0, xs.tobytes()))
                return t0, xs

            return generate

        return wrap

    seen = {DetectorKind.CPP: [], DetectorKind.GLR: []}
    delays = {}
    with patched(kernel.CppState, "observe", checked):
        for kind in (DetectorKind.CPP, DetectorKind.GLR):
            with patched(harness, "generate_trial_data", recorder(seen[kind])) as recorded:
                sweep = harness.threshold_sweep(spec, kind, n_trials=trials)
            delays[kind] = harness.interpolate_at_alpha(sweep)
    checks.check("check sweeps data-matched",
                 recorded and seen[DetectorKind.CPP] == seen[DetectorKind.GLR]
                 and len(seen[DetectorKind.CPP]) == trials,
                 lambda: "generate_trial_data not found" if not recorded else "data differ")
    checks.check("check sweep delays finite", all(math.isfinite(d) for d in delays.values()),
                 lambda: repr(delays))
    return delays[DetectorKind.CPP], delays[DetectorKind.GLR]


def _trace_metrics(tracer: Tracer, units: int, untraced_pps: float, traced_pps: float):
    metrics, accounting = layer_metrics(tracer, units)
    metrics["trace.points_per_s"] = (traced_pps, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_pps - traced_pps) / untraced_pps, "%")
    return metrics, accounting, tracer.absent


def run_workload(workload: str, seed: int, seconds: float, size: Size, trace: bool):
    """(end-to-end metrics, notes, traced layer metrics or None, probe input, checks)."""
    checks = Checks()
    if workload == "mc-sweep":
        out = mc_workload(seed, seconds, size, trace, checks)
    else:
        out = stream_workload(workload, seed, seconds, size, trace, checks)
    return (*out, checks)


# -- probes: work timed in fresh interpreters ------------------------------


@dataclass
class ProbeInput:
    """What the probes get from the run: a snapshot, and the GLR rows to match."""

    snapshot: str
    glr_rows: str


def probe(size: Size, snapshot: str) -> dict:
    """One GLR reference sweep and snapshot round trips, timed in this process.

    Interpreter-bound work such as a GLR sweep or a JSON round trip runs at
    a speed that differs from one process to the next by up to a third, while
    staying steady within a process.  The run therefore times it in several
    fresh processes and takes the median across them.
    """
    t = time.perf_counter()
    glr_sweep = harness.threshold_sweep(REFERENCE_SPEC, DetectorKind.GLR, n_trials=size.ref_trials)
    glr_s = time.perf_counter() - t
    state = kernel.CppState.from_json(snapshot)
    round_trips = []
    same = True
    for _ in range(size.snapshot_repeats):
        t = time.perf_counter()
        restored = kernel.CppState.from_json(state.to_json())
        round_trips.append(time.perf_counter() - t)
        same &= _same_state(state, restored)
    return {"glr_s": glr_s, "glr_rows": repr(glr_sweep.rows),
            "snapshot_s": statistics.median(round_trips), "snapshot_same": same}


def setup(workload: str, seed: int, size: Size) -> None:
    """What a run builds before its first observation: inputs and detectors."""
    if workload == "mc-sweep":
        for spec in (REFERENCE_SPEC, ScenarioSpec(seed=seed)):
            for kind in DetectorKind:
                harness.make_detector(kind, spec)
        return
    make_stream(seed, 0, size.stream_len, workload == "stream-known")
    kernel.CppState(config=stream_config(workload, size))
