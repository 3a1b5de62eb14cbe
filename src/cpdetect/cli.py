"""Command-line front end: run detectors, synthesize data, run benchmarks.

The options the subcommands share are declared once, on parent parsers:
``--seed`` on all three (falling back to the ``CPP_SEED`` environment
variable, then 0), and ``--mode``, ``--f`` and ``--nu-min`` on ``detect`` and
``bench``.  A command reports bad input by raising: ``main`` turns a
``ValueError`` or ``OSError`` (an unreadable series file, a config or data a
detector rejects, an option the chosen detector does not read, an unwritable
path) into ``error: <message>`` on stderr and exit code 2, as argparse does.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .datasets import TimeSeries, nile, read_series, write_series
from .gaussian_stats import EstimationMode
from .glr import GlrConfig, GlrState
from .harness import (
    DEFAULT_ALPHA,
    DetectorKind,
    DetectorParams,
    ScenarioSpec,
    delay_at_alpha,
    sigma_sweep,
    threshold_sweep,
)
from .kernel import CppConfig, CppState, SingleCpModel


def _resolve_seed(value):
    if value is not None:
        return int(value)
    env = os.environ.get("CPP_SEED")
    return int(env) if env else 0


#: Per detector, the options only it reads and their defaults, the configs' own,
#: which a run of the other must keep
_DETECTOR_OPTIONS = {
    "cpp": dict(mode=CppConfig.estimation_mode, f=SingleCpModel.change_prior_f,
                variance_change=CppConfig.variance_change,
                jacobi_iterations=CppConfig.jacobi_iterations),
    "glr": dict(nu_min=GlrConfig.nu_min),
}


def _reject_unread_options(args) -> None:
    detector = getattr(args, "detector", None)  # None: both run, or neither
    for owner, options in _DETECTOR_OPTIONS.items():
        for dest, default in options.items():
            if detector not in (None, owner) and getattr(args, dest, default) != default:
                raise ValueError(f"--{dest.replace('_', '-')} applies only to --detector {owner}")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write_rows(path, rows, fmt: str) -> None:
    """Write a list of dict rows as CSV, headed by the first row's keys, or JSON."""
    with open(path, "w", newline="") as fh:
        if fmt == "json":
            json.dump(rows, fh)
        else:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


# ---------------------------------------------------------------- detect


def cmd_detect(args) -> int:
    series = nile() if args.input == "nile" else read_series(args.input)
    if args.detector == "glr":
        if args.mu0 is None or args.sigma is None:
            raise ValueError("the GLR detector needs --mu0 and --sigma")
        state = GlrState(GlrConfig(mu0=args.mu0, sigma=args.sigma, nu_min=args.nu_min))
    else:
        config = CppConfig(
            model=SingleCpModel(mu0=args.mu0, sigma=args.sigma, change_prior_f=args.f),
            estimation_mode=args.mode,
            variance_change=args.variance_change,
            jacobi_iterations=args.jacobi_iterations,
        )
        state = CppState(config=config, rng=_resolve_seed(args.seed))
    trace = []
    for x in series.values:
        state.observe(x)
        trace.append(state.decision_g())
    report = {"detector": args.detector}
    if args.detector == "cpp":
        p_last = state.query_p_last()
        p_second, p_hzero = state.query_p_second()
        report.update({
            "n": len(series),
            "p_last": p_last.values.tolist(),
            "p_second": p_second.values.tolist(),
            "p_last_total": p_last.total(),
            "p_second_total": p_second.total(),
            "p_hzero": p_hzero,
            "p_last_argmax": p_last.argmax(),
            "p_last_argmax_label": series.label_of(p_last.argmax()),
            "p_second_argmax": p_second.argmax() if p_second.total() > 0 else None,
        })
    report.update(g_trace=trace, g_final=trace[-1])
    if args.snapshot:
        with open(args.snapshot, "w") as fh:
            fh.write(state.to_json())

    if args.format == "json":
        out = json.dumps(report)
    else:
        lines = [f"detector: {report['detector']}"]
        if report["detector"] == "cpp":
            lines += [
                f"points: {report['n']}",
                f"last-changepoint mass: {_fmt(report['p_last_total'])}"
                f" (argmax at {report['p_last_argmax']}"
                f" / label {report['p_last_argmax_label']})",
                f"second-changepoint mass: {_fmt(report['p_second_total'])}",
                f"P(fewer than two changes): {_fmt(report['p_hzero'])}",
            ]
        lines.append(f"final decision g: {_fmt(report['g_final'])}")
        lines.append("g trace: " + " ".join(_fmt(g) for g in report["g_trace"]))
        out = "\n".join(lines)
    if args.output:
        # a JSON report file ends without a newline; a text one ends with one
        with open(args.output, "w") as fh:
            fh.write(out if args.format == "json" else out + "\n")
    else:
        print(out)
    return 0


# ---------------------------------------------------------------- synth


def _parse_segment(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"segment {text!r} must be LENGTH:MU:SIGMA"
        )
    length, mu, sigma = int(parts[0]), float(parts[1]), float(parts[2])
    if length < 1 or not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
        raise argparse.ArgumentTypeError(f"bad segment {text!r}")
    return length, mu, sigma


def cmd_synth(args) -> int:
    rng = np.random.default_rng(_resolve_seed(args.seed))
    values = []
    changepoints = []
    for length, mu, sigma in args.segment:
        if values:
            changepoints.append(len(values))
        values.extend(rng.standard_normal(length) * sigma + mu)
    series = TimeSeries(values=np.array(values))
    write_series(args.out, series)
    truth = {
        "changepoints": changepoints,
        "segments": [
            {"length": length, "mu": mu, "sigma": sigma}
            for length, mu, sigma in args.segment
        ],
        "seed": _resolve_seed(args.seed),
    }
    with open(args.out + ".truth.json", "w") as fh:
        json.dump(truth, fh, indent=2)
    print(f"wrote {len(values)} points to {args.out} (truth sidecar alongside)")
    return 0


# ---------------------------------------------------------------- bench


def cmd_bench(args) -> int:
    if args.sigma_sweep and (args.detector or args.h):
        raise ValueError("--sigma-sweep runs both detectors on their default grids, so it "
                         "takes neither --detector nor --h")
    if args.h and not args.detector:
        # CPP thresholds are probabilities and GLR ones log-likelihood ratios
        raise ValueError("--h needs --detector: one threshold grid cannot serve both detectors")
    spec = ScenarioSpec(
        mu0=args.mu0, mu1=args.mu1, sigma=args.sigma, rho=args.rho,
        seed=_resolve_seed(args.seed),
    )
    params = DetectorParams(
        change_prior_f=args.f, nu_min=args.nu_min, estimation_mode=args.mode
    )

    if args.sigma_sweep:
        sigmas = [float(s) for s in args.sigma_sweep.split(",")]
        rows = sigma_sweep(spec, sigmas, n_trials=args.trials, params=params,
                           jobs=args.jobs)
        path = f"{args.out}_sigma.{args.format}"
        _write_rows(path, [asdict(row) for row in rows], args.format)
        print(f"wrote {path}")
        return 0

    kinds = [DetectorKind(args.detector)] if args.detector else list(DetectorKind)
    thresholds = [float(h) for h in args.h.split(",")] if args.h else None
    sweeps = {}
    for kind in kinds:
        sweep = threshold_sweep(spec, kind, thresholds=thresholds, n_trials=args.trials,
                                params=params, jobs=args.jobs)
        sweeps[kind] = sweep
        path = f"{args.out}_{kind.value}.{args.format}"
        _write_rows(path, [asdict(row) for row in sweep.rows], args.format)
        print(f"wrote {path}")

    if len(sweeps) == 2:
        comparison = {}
        for kind, sweep in sweeps.items():
            delay, reason = delay_at_alpha(sweep, DEFAULT_ALPHA)
            comparison[f"{kind.value}_delay_at_alpha"] = None if reason else delay
            if reason:
                comparison[f"{kind.value}_note"] = reason
        comparison["alpha"] = DEFAULT_ALPHA
        if args.trials < 20:
            comparison["note"] = "degenerate statistics: too few trials"
        path = f"{args.out}_comparison.json"
        with open(path, "w") as fh:
            json.dump(comparison, fh)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdetect",
        description="Changepoint probabilities, a GLR baseline, and a "
        "delay/false-alarm benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="seed (falls back to env CPP_SEED, then 0)")
    detector = argparse.ArgumentParser(add_help=False)
    # the defaults of every option only one detector reads, detect's own too
    detector.set_defaults(**_DETECTOR_OPTIONS["cpp"], **_DETECTOR_OPTIONS["glr"])
    detector.add_argument("--mode", type=EstimationMode, metavar="{plugin,sample}")
    detector.add_argument("--f", type=float, help="prior per-step change probability")
    detector.add_argument("--nu-min", type=float)

    p = sub.add_parser("detect", parents=[seeded, detector],
                       help="run a detector over a series file")
    p.add_argument("input", help="CSV series file, or 'nile' for the bundled data")
    p.add_argument("--detector", choices=["cpp", "glr"], default="cpp")
    p.add_argument("--variance-change", action="store_true")
    p.add_argument("--mu0", type=float, default=None,
                   help="known pre-change mean (omit to estimate)")
    p.add_argument("--sigma", type=float, default=None,
                   help="known std dev (omit to estimate)")
    p.add_argument("--jacobi-iterations", type=int)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--output", default=None, help="write the report here")
    p.add_argument("--snapshot", default=None, help="write a state snapshot (JSON)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("synth", parents=[seeded],
                       help="generate a synthetic piecewise-Gaussian series")
    p.add_argument("--segment", action="append", required=True, type=_parse_segment,
                   metavar="LENGTH:MU:SIGMA")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", parents=[seeded, detector],
                       help="delay vs false-alarm benchmark sweeps")
    p.add_argument("--detector", choices=["cpp", "glr"], default=None,
                   help="default: both, plus a comparison file")
    for name in ("mu0", "mu1", "sigma", "rho"):
        p.add_argument(f"--{name}", type=float, default=getattr(ScenarioSpec, name))
    p.add_argument("--h", default=None,
                   help="comma-separated threshold grid; needs --detector")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sigma-sweep", default=None,
                   help="comma-separated sigmas; emit delay-vs-sigma instead")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    option = next(iter(sys.argv[1:] if argv is None else argv), "").split("=")[0]
    if option in ("--seed", "--mode", "--f", "--nu-min"):  # the subcommands' shared options
        parser.error(f"{option} goes after the subcommand, as in 'cpdetect bench {option} ...'")
    args = parser.parse_args(argv)
    try:
        _reject_unread_options(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
