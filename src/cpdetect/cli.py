"""Command-line front end: run detectors, synthesize data, run benchmarks."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .datasets import SeriesParseError, TimeSeries, nile, read_series, write_series
from .gaussian_stats import EstimationMode
from .glr import GlrConfig, GlrState, glr_decision
from .harness import (
    DEFAULT_ALPHA,
    DetectorKind,
    DetectorParams,
    ScenarioSpec,
    interpolate_at_alpha,
    sigma_sweep,
    threshold_sweep,
)
from .kernel import CppConfig, CppState, SingleCpModel


def _resolve_seed(value):
    if value is not None:
        return int(value)
    env = os.environ.get("CPP_SEED")
    return int(env) if env else 0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _mode(name: str) -> EstimationMode:
    return EstimationMode.PLUG_IN if name == "plugin" else EstimationMode.POSTERIOR_SAMPLE


# ---------------------------------------------------------------- detect


def cmd_detect(args) -> int:
    try:
        series = nile() if args.input == "nile" else read_series(args.input)
    except (SeriesParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seed = _resolve_seed(args.seed)
    trace = []
    if args.detector == "glr":
        if args.mu0 is None or args.sigma is None:
            print("error: the GLR detector needs --mu0 and --sigma", file=sys.stderr)
            return 2
        try:
            cfg = GlrConfig(mu0=args.mu0, sigma=args.sigma, nu_min=args.nu_min)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        state = GlrState()
        for x in series.values:
            state.observe(x)
            trace.append(glr_decision(state, cfg))
        report = {"detector": "glr", "g_trace": trace, "g_final": trace[-1]}
    else:
        try:
            config = CppConfig(
                model=SingleCpModel(mu0=args.mu0, sigma=args.sigma, change_prior_f=args.f),
                estimation_mode=_mode(args.mode),
                variance_change=args.variance_change,
                jacobi_iterations=args.jacobi_iterations,
                window_cap=args.window_cap,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        state = CppState(config=config, rng=seed)
        for x in series.values:
            state.observe(x)
            trace.append(state.decision_g())
        p_last = state.query_p_last()
        p_second, p_hzero = state.query_p_second()
        report = {
            "detector": "cpp",
            "n": len(series),
            "p_last": p_last.values.tolist(),
            "p_second": p_second.values.tolist(),
            "p_last_total": p_last.total(),
            "p_second_total": p_second.total(),
            "p_hzero": p_hzero,
            "p_last_argmax": p_last.argmax(),
            "p_last_argmax_label": series.label_of(p_last.argmax()),
            "p_second_argmax": p_second.argmax() if p_second.total() > 0 else None,
            "g_trace": trace,
            "g_final": trace[-1],
        }
    if args.snapshot:
        with open(args.snapshot, "w") as fh:
            fh.write(state.to_json())

    if args.format == "json":
        out = json.dumps(report)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(out)
        else:
            print(out)
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
        text = "\n".join(lines)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return 0


# ---------------------------------------------------------------- synth


def _parse_segment(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"segment {text!r} must be LENGTH:MU:SIGMA"
        )
    length, mu, sigma = int(parts[0]), float(parts[1]), float(parts[2])
    if length < 1 or sigma <= 0:
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


def _write_sweep_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detector", "h", "alpha", "mean_delay", "n_trials", "n_oob"])
        for row in rows:
            writer.writerow(
                [row.detector, row.h, row.alpha, row.mean_delay, row.n_trials, row.n_oob]
            )


def cmd_bench(args) -> int:
    spec = ScenarioSpec(
        mu0=args.mu0, mu1=args.mu1, sigma=args.sigma, rho=args.rho,
        seed=_resolve_seed(args.seed),
    )
    params = DetectorParams(
        change_prior_f=args.f, nu_min=args.nu_min, estimation_mode=_mode(args.mode)
    )

    if args.sigma_sweep:
        sigmas = [float(s) for s in args.sigma_sweep.split(",")]
        rows = sigma_sweep(spec, sigmas, n_trials=args.trials, params=params,
                           jobs=args.jobs)
        path = f"{args.out}_sigma.{args.format}"
        if args.format == "json":
            with open(path, "w") as fh:
                json.dump(
                    [{"sigma": s, "cpp_delay": c, "glr_delay": g} for s, c, g in rows], fh
                )
        else:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["sigma", "cpp_delay", "glr_delay"])
                writer.writerows(rows)
        print(f"wrote {path}")
        return 0

    kinds = (
        [DetectorKind(args.detector)] if args.detector else
        [DetectorKind.CPP, DetectorKind.GLR]
    )
    thresholds = [float(h) for h in args.h.split(",")] if args.h else None
    sweeps = {}
    for kind in kinds:
        sweep = threshold_sweep(
            spec, kind, thresholds=thresholds if args.detector else None,
            n_trials=args.trials, params=params, jobs=args.jobs,
        )
        sweeps[kind] = sweep
        path = f"{args.out}_{kind.value}.{args.format}"
        if args.format == "json":
            with open(path, "w") as fh:
                json.dump([asdict(row) for row in sweep.rows], fh)
        else:
            _write_sweep_csv(path, sweep.rows)
        print(f"wrote {path}")

    if len(sweeps) == 2:
        comparison = {}
        for kind, sweep in sweeps.items():
            try:
                comparison[f"{kind.value}_delay_at_alpha"] = interpolate_at_alpha(
                    sweep, DEFAULT_ALPHA
                )
            except ValueError as exc:
                comparison[f"{kind.value}_delay_at_alpha"] = None
                comparison[f"{kind.value}_note"] = str(exc)
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
    parser.add_argument("--seed", type=int, default=None,
                        help="global seed (falls back to env CPP_SEED, then 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run a detector over a series file")
    p.add_argument("input", help="CSV series file, or 'nile' for the bundled data")
    p.add_argument("--detector", choices=["cpp", "glr"], default="cpp")
    p.add_argument("--mode", choices=["plugin", "sample"], default="plugin")
    p.add_argument("--variance-change", action="store_true")
    p.add_argument("--mu0", type=float, default=None,
                   help="known pre-change mean (omit to estimate)")
    p.add_argument("--sigma", type=float, default=None,
                   help="known std dev (omit to estimate)")
    p.add_argument("--f", type=float, default=0.005,
                   help="prior per-step change probability")
    p.add_argument("--nu-min", type=float, default=0.5)
    p.add_argument("--jacobi-iterations", type=int, default=1)
    p.add_argument("--window-cap", type=int, default=None,
                   help="freeze hypotheses older than this many points; once it binds, "
                   "the cap does not conserve probability today (g can exceed 1)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--output", default=None, help="write the report here")
    p.add_argument("--snapshot", default=None, help="write a state snapshot (JSON)")
    p.add_argument("--seed", type=int, default=None, dest="seed")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("synth", help="generate a synthetic piecewise-Gaussian series")
    p.add_argument("--segment", action="append", required=True, type=_parse_segment,
                   metavar="LENGTH:MU:SIGMA")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, dest="seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="delay vs false-alarm benchmark sweeps")
    p.add_argument("--detector", choices=["cpp", "glr"], default=None,
                   help="default: both, plus a comparison file")
    p.add_argument("--mode", choices=["plugin", "sample"], default="plugin")
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--mu1", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.02)
    p.add_argument("--f", type=float, default=0.005)
    p.add_argument("--nu-min", type=float, default=0.5)
    p.add_argument("--h", default=None, help="comma-separated threshold grid")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sigma-sweep", default=None,
                   help="comma-separated sigmas; emit delay-vs-sigma instead")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=int, default=None, dest="seed")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
