"""The program still computes what ``tests/golden/outputs.json`` records.

``scripts/golden.py --write`` writes that record: 13 detector configs x 3
seeds on 200-point two-shift streams, and both detectors' reference sweeps.
Here the program runs them again, and each stream is also restored from its
snapshots at ``golden.CUTS`` and run to its end, which must give the same
record.  Where numpy, its BLAS build and the CPU's SIMD extensions are those
recorded, the outputs must be equal bit for bit, snapshot hashes included;
elsewhere every probability must lie within 1e-12 of the recorded one (1e-12
of the unit mass it is a share of), every sweep value within 1e-12 of it
relatively, and the RNG states must be equal.  The test prints which check
it ran.
"""

import base64
import importlib
import json
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: the stream fields compared as probabilities in tolerance mode
PROBABILITIES = ("g", "p_last", "p_second", "p_hzero")
#: the float sweep columns, compared relatively in tolerance mode
SWEEP_FLOATS = ("h", "alpha", "mean_delay")
TOLERANCE = 1e-12


def unpack(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(float)


def close(actual: str, expected: str, relative: bool) -> bool:
    a, b = unpack(actual), unpack(expected)
    if a.shape != b.shape:
        return False
    scale = np.maximum(np.abs(b), np.abs(a)) if relative else 1.0
    both_nan = np.isnan(a) & np.isnan(b)
    return bool((both_nan | (np.abs(a - b) <= TOLERANCE * scale)).all())


def stream_differences(key: str, actual: dict, expected: dict, exact: bool) -> list[str]:
    """What differs between two streams' outputs; bit for bit if ``exact``."""
    if exact:
        return [f"{key} {field}" for field in expected if actual.get(field) != expected[field]]
    diffs = [f"{key} {field}" for field in PROBABILITIES
             if not close(actual[field], expected[field], relative=False)]
    if actual["rng_state"] != expected["rng_state"]:
        diffs.append(f"{key} rng_state")
    return diffs


def differences(actual: dict, expected: dict, exact: bool) -> list[str]:
    """Every difference of the record ``actual`` from the recorded ``expected``."""
    diffs = [f"{name}: {actual[name]!r} != {expected[name]!r}"
             for name in ("format", "points", "seeds", "trials") if actual[name] != expected[name]]
    if set(actual["streams"]) != set(expected["streams"]):
        diffs.append("the streams recorded differ")
    for key in expected["streams"].keys() & actual["streams"].keys():
        diffs += stream_differences(key, actual["streams"][key], expected["streams"][key], exact)
    for kind, rows in expected["sweeps"].items():
        got = actual["sweeps"][kind]
        for field, value in rows.items():
            same = got[field] == value if exact or field not in SWEEP_FLOATS \
                else close(got[field], value, relative=True)
            if not same:
                diffs.append(f"{kind} sweep {field}")
    return diffs


def test_outputs_match_the_golden_file(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the workers import golden by name too
    golden = importlib.import_module("golden")
    expected = json.loads(golden.PATH.read_text())
    exact = expected["environment"] == golden.environment()
    mode = "bit-identical" if exact else f"within {TOLERANCE:g}"
    runs = golden.streams(restore=True)
    diffs = differences(golden.record(runs), expected, exact)
    for key, (_, *restored) in runs.items():
        assert len(restored) == len(golden.CUTS)
        for cut, outs in zip(golden.CUTS, restored):
            diffs += stream_differences(f"{key} restored at {cut}", outs,
                                        expected["streams"][key], exact)
    print(f"golden check: {mode}")
    assert not diffs, f"golden check ({mode}) failed: " + "; ".join(diffs)
