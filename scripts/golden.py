"""Record what the detectors compute, for ``tests/test_golden.py`` to check.

    python3 scripts/golden.py --write   # rewrite tests/golden/outputs.json

The record holds, for each of 13 detector configs and 3 seeds, on a
200-point stream with two mean shifts: every step's decision statistic g;
the final p_last, p_second and p_hzero; the sha256 of the final snapshot
text; and the final RNG state.  It also holds the rows of both detectors'
200-trial threshold sweeps on the reference scenario, ``ScenarioSpec()``.
Float values are base64 strings of little-endian float64, as in a snapshot.

Matrix-product rounding can depend on the BLAS build and the CPU, so the
record also holds numpy's version, its BLAS build and the SIMD extensions
numpy found on the CPU; the test says how it compares where they differ.

Rewrite the record only with a change that sets out to change outputs, and
declare the change and its size where the change is described.
"""

import argparse
import base64
import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cpdetect import (CppConfig, CppState, DetectorKind, EstimationMode,  # noqa: E402
                      ScenarioSpec, SingleCpModel, threshold_sweep)

PATH = ROOT / "tests" / "golden" / "outputs.json"
FORMAT = 1

POINTS = 200
SEEDS = (0, 1, 2)
#: points after which a stream is snapshotted, to be restored and run on; past 160
#: points the step's products run by row blocks
CUTS = (161, 190)
TRIALS = 200
#: worker processes for the streams and for each sweep
JOBS = 2

_SAMPLE = EstimationMode.POSTERIOR_SAMPLE
_KNOWN = SingleCpModel(mu0=0.0, sigma=1.0)
CONFIGS = {
    "known": CppConfig(model=_KNOWN),
    "known-mu3-sigma0.5": CppConfig(model=SingleCpModel(mu0=3.0, sigma=0.5)),
    "sigma-known": CppConfig(model=SingleCpModel(sigma=1.0)),
    "mu0-known": CppConfig(model=SingleCpModel(mu0=0.0)),
    "estimated": CppConfig(),
    "estimated-3-sweeps": CppConfig(jacobi_iterations=3),
    "known-3-sweeps": CppConfig(model=_KNOWN, jacobi_iterations=3),
    "sample-known": CppConfig(model=_KNOWN, estimation_mode=_SAMPLE),
    "sample-sigma-known": CppConfig(model=SingleCpModel(sigma=1.0), estimation_mode=_SAMPLE),
    "sample-mu0-known": CppConfig(model=SingleCpModel(mu0=0.0), estimation_mode=_SAMPLE),
    "sample-estimated": CppConfig(estimation_mode=_SAMPLE),
    "variance-change": CppConfig(variance_change=True),
    "variance-change-sample": CppConfig(variance_change=True, estimation_mode=_SAMPLE),
}


def stream(seed: int, n: int = POINTS) -> np.ndarray:
    """n points of N(0, 1) with mean shifts of +1.5 at n/3 and -1 at 2n/3."""
    xs = np.random.default_rng(seed).standard_normal(n)
    xs[n // 3 :] += 1.5
    xs[2 * n // 3 :] -= 1.0
    return xs


def pack(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def outputs(state: CppState, gs) -> dict:
    """The recorded outputs of a state that has read its stream, whose g was ``gs``."""
    return {
        "g": pack(gs),
        "p_last": pack(state.p_last),
        "p_second": pack(state.p_second),
        "p_hzero": pack([state.p_hzero]),
        "to_json_sha256": hashlib.sha256(state.to_json().encode()).hexdigest(),
        "rng_state": state.rng.bit_generator.state,
    }


def run(key: str, restore: bool = False) -> list[dict]:
    """The outputs of the stream ``key``, "config/seed": a fresh state of that
    config and rng seed fed ``stream(seed)``.  With ``restore``, then the outputs
    of the state restored from its snapshot at each of ``CUTS`` and run on."""
    name, seed = key.rsplit("/", 1)
    xs = stream(int(seed))
    state, gs, snapshots = CppState(CONFIGS[name], rng=int(seed)), [], []
    for x in xs:
        state.observe(x)
        gs.append(state.decision_g())
        if restore and state.n in CUTS:
            snapshots.append(state.to_json())
    runs = [outputs(state, gs)]
    for snapshot in snapshots:
        state = CppState.from_json(snapshot)
        resumed = gs[: state.n]
        for x in xs[state.n :]:
            state.observe(x)
            resumed.append(state.decision_g())
        runs.append(outputs(state, resumed))
    return runs


def streams(restore: bool = False) -> dict:
    """{"config/seed": :func:`run`'s list} for every config and seed, in ``JOBS``
    spawned processes, which import this module by name."""
    # the costliest configs, sampled ones, come last in CONFIGS and go first here
    keys = [f"{name}/{seed}" for name in reversed(CONFIGS) for seed in SEEDS]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=spawn) as pool:
        return dict(zip(keys, pool.map(partial(run, restore=restore), keys)))


def sweep_rows(kind: DetectorKind) -> dict:
    """The reference scenario's sweep rows, a column per field."""
    rows = threshold_sweep(ScenarioSpec(), kind, n_trials=TRIALS, jobs=JOBS).rows
    return {
        "h": pack([r.h for r in rows]),
        "alpha": pack([r.alpha for r in rows]),
        "mean_delay": pack([r.mean_delay for r in rows]),
        "n_trials": [r.n_trials for r in rows],
        "n_oob": [r.n_oob for r in rows],
    }


def environment() -> dict:
    """What matrix-product rounding can depend on: numpy, its BLAS and the CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd_found": config["SIMD Extensions"].get("found", []),
    }


def record(runs: dict | None = None) -> dict:
    """The whole record; ``runs`` are :func:`streams`' result, if already run,
    as the test runs them with restores."""
    runs = streams() if runs is None else runs
    return {
        "format": FORMAT,
        "environment": environment(),
        "points": POINTS,
        "seeds": list(SEEDS),
        "trials": TRIALS,
        "streams": {key: outs[0] for key, outs in runs.items()},
        "sweeps": {kind.value: sweep_rows(kind) for kind in DetectorKind},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", required=True,
                   help=f"rewrite {PATH.relative_to(ROOT)}")
    p.parse_args(argv)
    PATH.parent.mkdir(parents=True, exist_ok=True)
    PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
