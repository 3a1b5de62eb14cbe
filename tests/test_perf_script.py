"""scripts/perf.py still runs against the current API (its per-mode table at
a tiny size; the perfbench workloads it wraps have their own smoke test)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf.py"


@pytest.fixture
def perf(monkeypatch):
    # the script sets the BLAS thread variables on import; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("perf_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_observe_table_covers_every_mode(perf):
    table = perf.observe_table(sizes=(10, 20), steps=4)
    assert set(table) == {"known", "estimated", "sample", "variance_change"}
    for row in table.values():
        assert set(row) == {"10", "20"}
        assert all(ms > 0 for ms in row.values())


def test_short_sizes_take_the_median_over_seeded_streams(perf, monkeypatch):
    # each fake step costs its stream's seed plus a thousandth of its length
    calls = []

    def fake_observe_ms(config, xs, seed):
        calls.append((len(xs), seed))
        return [seed + len(xs) / 1000] * len(xs)

    monkeypatch.setattr(perf, "observe_ms", fake_observe_ms)
    monkeypatch.setattr(perf, "MODES", {"known": perf.MODES["known"]})
    table = perf.observe_table(sizes=(10, 20, 300), steps=4, streams=5)
    # the sizes up to SHORT share 5 streams of 22 points, seeds 0..4; 300 one long stream
    assert sorted(calls) == sorted([(22, seed) for seed in range(5)] + [(302, 0)])
    assert table["known"] == {"10": 2.022, "20": 2.022, "300": 0.302}


def test_observe_table_streams_differ_by_seed(perf):
    assert not (perf.stream(30, 0) == perf.stream(30, 1)).any()
    assert (perf.stream(30, 3) == perf.stream(30, 3)).all()


def test_crashed_workload_run_is_recorded_by_exit_code(perf, monkeypatch, tmp_path):
    # a run that dies after its environment line leaves no result line to parse
    def crashed(cmd, **kwargs):
        stdout = 'perfbench workload=x\nenv {"python": "3"}\n'
        return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr="Traceback ...\n")

    monkeypatch.setattr(perf.subprocess, "run", crashed)
    monkeypatch.setattr(perf, "pin_cpu", lambda: 0)
    monkeypatch.setattr(perf, "observe_table", lambda: {})
    assert perf.run_workload("mc-sweep", 0, 0.0) == {"exit_code": 1}

    assert perf.main(["--label", "crash", "--seconds", "0", "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "BENCH_crash.json").read_text())
    assert doc["workloads"]
    assert all(w == {"exit_code": 1} for w in doc["workloads"].values())
    assert doc["src_lines"] == perf.source_lines()


def test_source_lines_leave_out_blanks_comments_and_docstrings(perf, tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Module\ndocstring."""\n\nimport os  # a comment\n\n\n'
        'def f(x):\n    """One line."""\n    # a comment\n    return (x +\n            1)\n'
    )
    (tmp_path / "pkg" / "b.py").write_text('X = """not a\ndocstring"""\n')
    # a.py: 11 lines, 4 of code (import, def, return and its continuation); b.py: 2 and 2
    assert perf.source_lines(tmp_path) == {"total": 13, "code": 6}


TIER1_STDOUT = """\
.....F..x...
============================= slowest 10 durations =============================
15.69s call     tests/test_acceptance.py::test_criterion_2_sigma_sweep_crossover
6.07s setup    tests/test_acceptance.py::test_criterion_1_operating_point_delays
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_3b_last_change_mode_location
1 failed, 449 passed, 6 xfailed, 2 warnings in 89.28s (0:01:29)
"""


def test_tier1_run_records_counts_wall_time_and_slowest_tests(perf, monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        return subprocess.CompletedProcess(cmd, 1, stdout=TIER1_STDOUT, stderr="")

    monkeypatch.setattr(perf.subprocess, "run", fake_run)
    result = perf.run_tier1()
    (cmd, kwargs), = calls
    assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
    assert kwargs["env"]["PYTHONPATH"].startswith(str(perf.ROOT / "src"))
    assert result.pop("wall_s") >= 0
    assert result == {
        "exit_code": 1,
        "counts": {"passed": 449, "failed": 1, "xfailed": 6, "warnings": 2},
        "slowest": [
            {"seconds": 15.69, "when": "call",
             "test": "tests/test_acceptance.py::test_criterion_2_sigma_sweep_crossover"},
            {"seconds": 6.07, "when": "setup",
             "test": "tests/test_acceptance.py::test_criterion_1_operating_point_delays"},
        ],
    }


@pytest.mark.parametrize("stdout", ["", "ImportError while loading conftest\n",
                                    TIER1_STDOUT.rsplit("1 failed", 1)[0]],
                         ids=["empty", "crashed", "no-summary"])
def test_unparsable_tier1_run_is_recorded_by_exit_code(perf, monkeypatch, stdout):
    monkeypatch.setattr(perf.subprocess, "run",
                        lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 4, stdout, ""))
    assert perf.run_tier1() == {"exit_code": 4}


def test_bench_file_holds_the_tier1_run(perf, monkeypatch, tmp_path):
    monkeypatch.setattr(perf, "run_tier1", lambda: {"exit_code": 3})
    monkeypatch.setattr(perf, "run_workload", lambda name, seed, seconds: {"exit_code": 0})
    monkeypatch.setattr(perf, "pin_cpu", lambda: 0)
    monkeypatch.setattr(perf, "observe_table", lambda: {})
    assert perf.main(["--label", "t", "--seconds", "0", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "BENCH_t.json").read_text())["tier1"] == {"exit_code": 3}
