"""Spans around the calls into each cpdetect layer, recorded from outside.

For a traced unit of work, :func:`installed` rebinds module and class
attributes of cpdetect to timing wrappers and restores the originals
afterwards.  Each wrapper records one span (name, start, end, parent); the
spans stay in memory and :func:`layer_metrics` derives totals and self
times from them.  A hook whose target no longer exists is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager

import numpy as np

from cpdetect import gaussian_stats, glr, harness, kernel


def _ndarray_attrs(obj):
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


class Tracer:
    """In-memory span store; spans are appended in the order they open."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.sums: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.absent: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def in_sweep(self) -> bool:
        return any(self.names[i] == "harness.sweep" for i in self._stack)


# -- counters taken from what each layer was given or returned ------------


def _count_table_cells(tracer, args, result):
    tracer.add("kernel.tables.cells", sum(a.size for a in _ndarray_attrs(result) if a.ndim == 2))


def _count_memo_cells(tracer, args, result):
    memo = getattr(args[2], "memo", None)
    if isinstance(memo, np.ndarray):
        tracer.add("kernel.memo.cells", memo.size)


def _record_history_bytes(tracer, args, result):
    tracer.peak("kernel.history.bytes", sum(a.nbytes for a in _ndarray_attrs(args[0])))


def _count_snapshot_bytes(tracer, args, result):
    tracer.add("kernel.snapshot.bytes", len(result.encode()))


def _count_trial_points(tracer, args, result):
    if tracer.in_sweep():
        tracer.add("harness.trial_points", len(result[1]))


#: (owner, attribute, span name, counter called after the call returns)
HOOKS = [
    (kernel.CppState, "observe", "kernel.observe", None),
    (kernel, "build_conditional_tables", "kernel.tables", _count_table_cells),
    (kernel, "_hzero_posterior", "kernel.hzero", None),
    (kernel, "jacobi_step", "kernel.jacobi", _count_memo_cells),
    (kernel.PosteriorMatrix, "append", "kernel.history.append", _record_history_bytes),
    (kernel.CppState, "to_json", "kernel.snapshot.to_json", _count_snapshot_bytes),
    (kernel.CppState, "from_json", "kernel.snapshot.from_json", None),
    (gaussian_stats.PrefixStats, "append", "gaussian_stats.prefix.append", None),
    (gaussian_stats.PrefixStats, "arrays", "gaussian_stats.prefix.arrays", None),
    (glr, "glr_decision", "glr.decision", None),
    (harness, "glr_decision", "glr.decision", None),
    (harness, "generate_trial_data", "harness.data_gen", _count_trial_points),
    (harness, "trimmed_mean_delay", "harness.aggregate", None),
    (harness, "interpolate_at_alpha", "harness.aggregate", None),
]


@contextmanager
def patched(owner, attr, make_wrapper):
    """Rebind ``owner.attr`` to ``make_wrapper(original)`` for the block.

    Classmethods and staticmethods are unwrapped and re-wrapped so the
    descriptor keeps its kind.  Yields False, and changes nothing, when the
    attribute does not exist.
    """
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        yield False
        return
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(make_wrapper(raw.__func__))
    else:
        replacement = make_wrapper(raw)
    setattr(owner, attr, replacement)
    try:
        yield True
    finally:
        setattr(owner, attr, raw)


def _span_wrapper(tracer, name, count):
    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    return make


@contextmanager
def installed(tracer: Tracer):
    """Every hook in :data:`HOOKS` bound to ``tracer`` for the block."""
    with ExitStack() as stack:
        for owner, attr, name, count in HOOKS:
            if not stack.enter_context(patched(owner, attr, _span_wrapper(tracer, name, count))):
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in tracer.absent:
                    tracer.absent.append(label)
        yield


# -- derived layer metrics -------------------------------------------------


def _span_table(tracer: Tracer):
    """Per span: duration and self time in ms, plus subtree membership."""
    n = len(tracer.names)
    dur = (np.asarray(tracer.ends) - np.asarray(tracer.starts)) * 1e3
    child = np.zeros(n)
    in_observe = np.zeros(n, dtype=bool)
    in_sweep = np.zeros(n, dtype=bool)
    for i, (name, p) in enumerate(zip(tracer.names, tracer.parents)):
        if p >= 0:
            child[p] += dur[i]
        in_observe[i] = name == "kernel.observe" or (p >= 0 and in_observe[p])
        in_sweep[i] = name == "harness.sweep" or (p >= 0 and in_sweep[p])
    return dur, dur - child, in_observe, in_sweep


def layer_metrics(tracer: Tracer, units: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced unit, and the observe accounting."""
    names = np.asarray(tracer.names, dtype=object)
    dur, self_ms, in_observe, in_sweep = _span_table(tracer)

    def select(name, mask):
        chosen = names == name
        return chosen if mask is None else chosen & mask

    def total(name, values=dur, mask=None):
        return float(values[select(name, mask)].sum()) / units

    def calls(name, mask=None):
        return int(select(name, mask).sum()) / units

    steps = calls("kernel.observe", in_sweep) + calls("glr.decision", in_sweep)
    trial_points = tracer.sums.get("harness.trial_points", 0.0) / units
    snapshots = calls("kernel.snapshot.to_json")
    metrics = {
        "kernel.observe.calls": (calls("kernel.observe"), "count"),
        "kernel.observe.ms": (total("kernel.observe"), "ms"),
        "kernel.observe.self_ms": (total("kernel.observe", self_ms), "ms"),
        "kernel.tables.calls": (calls("kernel.tables"), "count"),
        "kernel.tables.ms": (total("kernel.tables"), "ms"),
        "kernel.tables.self_ms": (total("kernel.tables", self_ms), "ms"),
        "kernel.tables.cells": (tracer.sums.get("kernel.tables.cells", 0.0) / units, "count"),
        "kernel.hzero.ms": (total("kernel.hzero"), "ms"),
        "kernel.jacobi.ms": (total("kernel.jacobi"), "ms"),
        "kernel.memo.cells": (tracer.sums.get("kernel.memo.cells", 0.0) / units, "count"),
        "kernel.history.append_ms": (total("kernel.history.append"), "ms"),
        "kernel.history.bytes": (tracer.peaks.get("kernel.history.bytes", 0.0), "bytes"),
        "kernel.snapshot.to_json_ms": (total("kernel.snapshot.to_json"), "ms"),
        "kernel.snapshot.from_json_ms": (total("kernel.snapshot.from_json"), "ms"),
        "kernel.snapshot.bytes": (
            tracer.sums.get("kernel.snapshot.bytes", 0.0) / units / snapshots if snapshots else 0.0,
            "bytes",
        ),
        "gaussian_stats.prefix.append_ms": (total("gaussian_stats.prefix.append"), "ms"),
        "gaussian_stats.prefix.arrays_ms": (total("gaussian_stats.prefix.arrays"), "ms"),
        "glr.decision.calls": (calls("glr.decision"), "count"),
        "glr.decision.ms": (total("glr.decision"), "ms"),
        "harness.data_gen_ms": (total("harness.data_gen", mask=in_sweep), "ms"),
        "harness.aggregate_ms": (total("harness.aggregate"), "ms"),
        "harness.steps": (steps, "count"),
        "harness.early_stop_ratio": (steps / trial_points if trial_points else 0.0, "ratio"),
        "trace.hooks_absent": (len(tracer.absent), "count"),
    }
    observe_total = float(dur[names == "kernel.observe"].sum())
    observe_parts = {name: float(self_ms[select(name, in_observe)].sum())
                     for name in sorted(set(names[in_observe]))}
    accounting = {"observe_ms": observe_total, "self_ms_by_layer": observe_parts}
    return metrics, accounting
