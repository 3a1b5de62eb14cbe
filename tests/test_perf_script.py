"""scripts/perf.py still runs against the current API (its per-mode table at
a tiny size; the perfbench workloads it wraps have their own smoke test)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf.py"


def test_observe_table_covers_every_mode(monkeypatch):
    # the script sets the BLAS thread variables on import; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("perf_script", SCRIPT)
    perf = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf)

    table = perf.observe_table(sizes=(10, 20), steps=4)
    assert set(table) == {"known", "estimated", "sample", "variance_change", "capped"}
    for row in table.values():
        assert set(row) == {"10", "20"}
        assert all(ms > 0 for ms in row.values())
