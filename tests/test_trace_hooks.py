"""The benchmark's trace hooks name attributes that exist.

``perfbench/tracing.py`` rebinds each ``(owner, attribute)`` in its
``HOOKS`` to a timing wrapper.  A hook whose target was renamed or removed
is only counted as absent, and the layer's metrics then read zero, so a
renamed kernel function would silently drop a layer from every traced run.
A target that still exists but is no longer called reads zero the same way,
so the work the benchmark traces is also run under the hooks.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cpdetect import harness, kernel

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _, _ in tracing.HOOKS],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in tracing.HOOKS],
)
def test_hook_target_exists(owner, attr):
    with tracing.patched(owner, attr, lambda fn: fn) as found:
        assert found, f"{owner!r} has no attribute {attr!r} for the trace to hook"


def test_installing_every_hook_finds_every_target():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    assert tracer.absent == []


def test_every_hook_fires_on_the_call_path():
    tracer = tracing.Tracer()
    xs = np.random.default_rng(0).standard_normal(30)
    with tracing.installed(tracer):
        for model in (kernel.SingleCpModel(mu0=0.0, sigma=1.0), kernel.SingleCpModel()):
            state = kernel.CppState(kernel.CppConfig(model=model), rng=0)
            for x in xs:
                state.observe(x)
            state = kernel.CppState.from_json(state.to_json())
            state.observe(0.5)
        for kind in (harness.DetectorKind.CPP, harness.DetectorKind.GLR):
            sweep = harness.threshold_sweep(harness.ScenarioSpec(seed=0), kind, n_trials=3)
            try:
                harness.interpolate_at_alpha(sweep, harness.DEFAULT_ALPHA)
            except ValueError:  # three trials leave no row with a defined delay
                pass
    assert tracer.absent == []
    silent = {name for _, _, name, _ in tracing.HOOKS} - set(tracer.names)
    assert not silent, f"hooks that never fired: {sorted(silent)}"
