"""Write one point of the benchmark trajectory, ``BENCH_<label>.json``.

    python3 scripts/perf.py --label change
    python3 scripts/perf.py --label parent --seconds 15 --out /some/dir

Four measurements go into the file:

* every workload that ``BENCHMARK.json`` lists, run once through
  ``perfbench/run.py --trace 0``: its end-to-end metrics and check counts;
* the per-mode ``observe`` table: ms per ``CppState.observe`` at window sizes
  n = 25, 50, 100, 200, 400 and 800 for known sigma, estimated sigma,
  posterior sampling (known sigma) and ``variance_change`` (plug-in).  A
  size up to 200 is the median, over 7 seeded streams, of each stream's
  median over the 30 steps around n; one stream at n <= 100 moves by about
  30 % from run to run.  The sizes 400 and 800 take the median of the 30
  steps around n of one long stream.  The two small sizes show the fixed
  cost of a step;
* the size of ``src/``: its total lines, and its code lines, which leave out
  blank lines, comments and docstrings;
* one run of the Tier-1 suite with ``--durations=10``: its wall time, its
  pass, fail and xfail counts (and any other count its summary line gives)
  and its ten slowest tests.  It runs first, with one BLAS thread but before
  the script pins itself, so tests that start worker processes can use every
  CPU.  A run whose summary line cannot be parsed is recorded by its exit
  code alone.

The workloads and the table run with one BLAS thread and pinned to the
highest-numbered CPU the process may use, through ``perfbench/run.py``'s own
``pin_cpu``.  The file also
records the environment, as ``perfbench/run.py`` reports it, and the git SHA of
the checkout, with ``dirty`` set when the checkout has uncommitted changes.
A workload run that crashes is recorded by its exit code alone, and the
script then exits 1.  The program measured is the ``src/`` next to this
script's directory.
"""

import argparse
import ast
import importlib.util
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark's environment record and CPU pinning, loaded from its file.
# Loading it sets one BLAS thread, so it comes before numpy is first imported.
_SPEC = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_bench)
environment, pin_cpu = _bench.environment, _bench.pin_cpu
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cpdetect import CppConfig, CppState, EstimationMode, SingleCpModel  # noqa: E402

SIZES = (25, 50, 100, 200, 400, 800)
#: steps per median; the steps that leave the window at n - 14 .. n + 15
STEPS = 30
#: sizes up to SHORT take the median over STREAMS seeded streams (seeds 0, 1, ...)
SHORT = 200
STREAMS = 7

_KNOWN = SingleCpModel(mu0=0.0, sigma=1.0)
MODES = {
    "known": CppConfig(model=_KNOWN),
    "estimated": CppConfig(model=SingleCpModel()),
    "sample": CppConfig(model=_KNOWN, estimation_mode=EstimationMode.POSTERIOR_SAMPLE),
    "variance_change": CppConfig(model=SingleCpModel(), variance_change=True),
}


def stream(n: int, seed: int = 0) -> np.ndarray:
    """n points of N(0, 1) with mean shifts of +1.5 at n/3 and -1 at 2n/3."""
    xs = np.random.default_rng(seed).standard_normal(n)
    xs[n // 3 :] += 1.5
    xs[2 * n // 3 :] -= 1.0
    return xs


def observe_ms(config: CppConfig, xs: np.ndarray, seed: int) -> list[float]:
    """ms of each ``observe`` of a fresh state (rng ``seed``) fed ``xs``;
    entry k is the step that leaves k + 1 points in the window."""
    state = CppState(config, rng=seed)
    ms = []
    for x in xs:
        start = time.perf_counter()
        state.observe(x)
        ms.append(1e3 * (time.perf_counter() - start))
    return ms


def observe_table(sizes=SIZES, steps: int = STEPS, streams: int = STREAMS) -> dict:
    """{mode: {n: median ms per observe over the ``steps`` steps around n}};
    a size up to SHORT takes the median of that over ``streams`` streams."""
    half = steps // 2
    short = [n for n in sizes if n <= SHORT]
    table = {}
    for mode, config in MODES.items():
        runs = [observe_ms(config, stream(max(short) + half, seed), seed)
                for seed in range(streams)] if short else []
        long = observe_ms(config, stream(max(sizes) + half), 0) if max(sizes) > SHORT else []
        table[mode] = {
            str(n): statistics.median(
                [statistics.median(ms[n - half : n + half]) for ms in runs]
                if n <= SHORT else long[n - half : n + half]
            )
            for n in sizes
        }
    return table


#: tokens that make no line a code line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def source_lines(root: Path = ROOT / "src") -> dict:
    """{"total": lines, "code": code lines} of the Python files under root;
    a code line holds a token that is neither a comment nor a docstring."""
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        total += len(text.splitlines())
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            first = node.body[0] if isinstance(node, _HAS_DOCSTRING) and node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        code += len(lines - docstrings)
    return {"total": total, "code": code}


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}  # the run crashed before it printed its result line
    return {**result, "exit_code": proc.returncode}


#: the Tier-1 command of ROADMAP.md, reporting the ten slowest tests
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10"]
#: "1 failed, 449 passed, 6 xfailed in 89.28s (0:01:29)", pytest's last line
_SUMMARY = re.compile(r"^(\d+ [a-z]+)(, \d+ [a-z]+)* in [\d.]+s\b")
_DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown) +(\S+)$")


def run_tier1() -> dict:
    """Exit code, wall time, counts and ten slowest tests of one Tier-1 run."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path})
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if not lines or not _SUMMARY.match(lines[-1]):
        return {"exit_code": proc.returncode}  # it crashed, or printed no summary
    counts = {"passed": 0, "failed": 0, "xfailed": 0}
    for count, word in re.findall(r"(\d+) ([a-z]+)", lines[-1].split(" in ")[0]):
        counts[word] = int(count)
    slowest = [{"seconds": float(m[1]), "when": m[2], "test": m[3]}
               for m in map(_DURATION.match, lines) if m]
    return {"exit_code": proc.returncode, "wall_s": round(wall_s, 2), "counts": counts,
            "slowest": slowest}


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0, help="per workload")
    p.add_argument("--out", type=Path, default=ROOT, help="directory of the file")
    args = p.parse_args(argv)

    print("perf: tier-1 suite", file=sys.stderr)
    tier1 = run_tier1()
    cpu = pin_cpu()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = {}
    for name in names:
        print(f"perf: workload {name}", file=sys.stderr)
        workloads[name] = run_workload(name, args.seed, args.seconds)
    print("perf: observe table", file=sys.stderr)
    doc = {
        "label": args.label,
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "environment": environment(cpu),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": workloads,
        "observe_ms": {"sizes": list(SIZES), "steps": STEPS, "short_streams": STREAMS,
                       "short_max": SHORT, "modes": observe_table()},
        "src_lines": source_lines(),
        "tier1": tier1,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0 if all(w["exit_code"] == 0 for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
