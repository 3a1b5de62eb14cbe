"""The benchmark's trace hooks name attributes that exist.

``perfbench/tracing.py`` rebinds each ``(owner, attribute)`` in its
``HOOKS`` to a timing wrapper.  A hook whose target was renamed or removed
is only counted as absent, and the layer's metrics then read zero, so a
renamed kernel function would silently drop a layer from every traced run.
"""

import importlib.util
from pathlib import Path

import pytest

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
