"""End-to-end tests of the command-line interface and series file I/O."""

import csv
import json
import math

import numpy as np
import pytest

from cpdetect.cli import main
from cpdetect.datasets import (
    SeriesParseError,
    TimeSeries,
    nile,
    read_series,
    read_series_text,
    write_series,
)
from cpdetect.glr import GlrConfig
from cpdetect.kernel import CppConfig


class TestSeriesFiles:
    def test_value_only_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        original = TimeSeries(values=np.array([1.5, -2.25, 0.125]))
        write_series(path, original)
        loaded = read_series(path)
        np.testing.assert_array_equal(loaded.values, original.values)
        assert loaded.labels is None

    def test_labeled_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        original = TimeSeries(values=np.array([1.0, 2.0]), labels=("1871", "1872"))
        write_series(path, original)
        loaded = read_series(path)
        assert loaded.labels == original.labels
        assert loaded.label_of(2) == "1872"

    def test_comments_and_header_are_skipped(self):
        series = read_series_text("# a comment\nvalue\n1.0\n2.0\n")
        assert len(series) == 2

    def test_blank_lines_and_indented_comments_are_skipped(self):
        series = read_series_text("value\n1.0\n\n   \n  # a note\n2.0\n")
        np.testing.assert_array_equal(series.values, [1.0, 2.0])

    def test_parse_error_names_line(self):
        with pytest.raises(SeriesParseError, match=":3"):
            read_series_text("value\n1.0\nnot-a-number\n")

    def test_non_finite_rejected(self):
        with pytest.raises(SeriesParseError):
            read_series_text("value\ninf\n")

    def test_empty_file_rejected(self):
        with pytest.raises(SeriesParseError, match="no observations"):
            read_series_text("# only comments\n")

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(SeriesParseError, match="inconsistent"):
            read_series_text("a,1.0\n2.0\n")

    def test_output_is_rfc4180_parseable(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series(path, TimeSeries(values=np.array([1.0, 2.0]), labels=("x", "y")))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "value"]
        assert len(rows) == 3

    def test_nile_dataset_shape(self):
        series = nile()
        assert len(series) == 100
        assert series.label_of(1) == "1871"
        assert series.label_of(100) == "1970"
        assert series.values[27] == 1100.0  # year 1898


class TestDetectCommand:
    def test_nile_argmax_year_in_expected_range(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["detect", "nile", "--format", "json", "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert 1896 <= int(report["p_last_argmax_label"]) <= 1901

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["detect", str(tmp_path / "missing.csv")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        rc = main(["detect", str(path)])
        assert rc != 0

    def test_glr_requires_known_parameters(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n2.0\n")
        rc = main(["detect", str(path), "--detector", "glr"])
        assert rc != 0
        assert "--mu0" in capsys.readouterr().err

    def test_glr_detect_reports_trace(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("value\n" + "\n".join(["0.0"] * 5 + ["4.0"] * 5) + "\n")
        rc = main(
            ["detect", str(path), "--detector", "glr", "--mu0", "0", "--sigma", "1",
             "--format", "json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["g_trace"]) == 10
        assert report["g_final"] > 5

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma", "0"], "sigma must be positive"),
            (["--sigma", "nan"], "finite"),
            (["--nu-min", "inf"], "finite"),
            (["--sigma", "1e200"], "sigma=1e+200 squares to inf"),
            (["--sigma", "1e-200"], "sigma=1e-200 squares to 0.0"),
        ],
        ids=["sigma-zero", "sigma-nan", "nu-min-inf", "sigma-square-overflows",
             "sigma-square-underflows"],
    )
    def test_glr_config_error_is_usage_error(self, tmp_path, capsys, flags, message):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        rc = main(["detect", str(path), "--detector", "glr", "--mu0", "0", "--sigma", "1", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--variance-change", "--mu0", "0"], "variance_change"),
            (["--variance-change", "--sigma", "1"], "variance_change"),
            (["--jacobi-iterations", "0"], "jacobi_iterations"),
            (["--sigma", "nan"], "sigma must be"),
            (["--mu0", "0", "--sigma", "1e160"], "sigma=1e+160 squares to inf"),
            (["--mu0", "0", "--sigma", "1e-170"], "sigma=1e-170 squares to 0.0"),
        ],
        ids=["variance-change-mu0", "variance-change-sigma", "jacobi", "sigma-nan",
             "sigma-square-overflows", "sigma-square-underflows"],
    )
    def test_config_the_kernel_rejects_is_usage_error(self, tmp_path, capsys, flags, message):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        rc = main(["detect", str(path), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_window_cap_is_an_unrecognized_argument(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(path), "--window-cap", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window-cap 10" in capsys.readouterr().err

    def test_overflowing_series_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n1e200\n2.0\n")
        rc = main(["detect", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow" in err

    def test_constant_file_has_low_change_mass(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("value\n" + "\n".join(["1.0"] * 60) + "\n")
        rc = main(
            ["detect", str(path), "--mu0", "1", "--sigma", "1", "--f", "0.001",
             "--format", "json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_last_total"] < 0.2

    def test_snapshot_round_trips(self, tmp_path, capsys):
        from cpdetect.kernel import CppState

        path = tmp_path / "s.csv"
        path.write_text("value\n" + "\n".join(str(x) for x in range(10)) + "\n")
        snap = tmp_path / "state.json"
        rc = main(["detect", str(path), "--snapshot", str(snap)])
        assert rc == 0
        state = CppState.from_json(snap.read_text())
        assert state.n == 10

    def test_glr_snapshot_round_trips(self, tmp_path):
        from cpdetect.glr import GlrState

        snap = tmp_path / "state.json"
        rc = main(["detect", "nile", "--detector", "glr", "--mu0", "900", "--sigma", "150",
                   "--snapshot", str(snap)])
        assert rc == 0
        state = GlrState.from_json(snap.read_text())
        assert state.series == nile().values.tolist()
        assert state.to_json() == snap.read_text()

    def test_byte_identical_under_fixed_seed(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n" + "\n".join(str(0.1 * x) for x in range(20)) + "\n")
        outs = []
        for rep in range(2):
            out = tmp_path / f"out{rep}.json"
            rc = main(
                ["detect", str(path), "--mode", "sample", "--seed", "5",
                 "--format", "json", "--output", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_text("value\n" + "\n".join(str(0.3 * x) for x in range(15)) + "\n")
        results = {}
        for label, env in (("a", "17"), ("b", "17"), ("c", "99")):
            monkeypatch.setenv("CPP_SEED", env)
            out = tmp_path / f"{label}.json"
            main(["detect", str(path), "--mode", "sample", "--format", "json",
                  "--output", str(out)])
            results[label] = out.read_bytes()
        assert results["a"] == results["b"]
        assert results["a"] != results["c"]


class TestSharedOptions:
    def test_seed_before_the_subcommand_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "5", "synth", "--segment", "10:0:1", "--out",
                  str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [["--seed", "3"], ["--seed=3"], ["--mode", "sample"]])
    def test_shared_option_before_the_subcommand_is_named(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "synth", "--segment", "5:0:1", "--out", str(tmp_path / "y.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        option = argv[0].split("=")[0]
        assert err.startswith("usage: ")
        assert f"error: {option} goes after the subcommand" in err
        assert "invalid choice" not in err

    @pytest.mark.parametrize("command", ["detect", "synth", "bench"])
    def test_every_command_takes_seed(self, command):
        from cpdetect.cli import build_parser

        extra = {"detect": ["nile"], "synth": ["--segment", "5:0:1", "--out", "x"],
                 "bench": ["--out", "x"]}[command]
        args = build_parser().parse_args([command, *extra, "--seed", "7"])
        assert args.seed == 7

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["detect", "nile", "--detector", "glr", "--variance-change"],
             "--variance-change applies only to --detector cpp"),
            (["detect", "nile", "--detector", "glr", "--jacobi-iterations", "3"],
             "--jacobi-iterations applies only to --detector cpp"),
            (["detect", "nile", "--detector", "glr", "--mode", "sample"],
             "--mode applies only to --detector cpp"),
            (["detect", "nile", "--detector", "glr", "--f", "0.2"],
             "--f applies only to --detector cpp"),
            (["detect", "nile", "--nu-min", "3"], "--nu-min applies only to --detector glr"),
            (["bench", "--detector", "cpp", "--nu-min", "3"],
             "--nu-min applies only to --detector glr"),
            (["bench", "--detector", "glr", "--mode", "sample"],
             "--mode applies only to --detector cpp"),
            (["bench", "--detector", "glr", "--f", "0.2"], "--f applies only to --detector cpp"),
        ],
        ids=["detect-glr-variance-change", "detect-glr-jacobi", "detect-glr-mode",
             "detect-glr-f", "detect-cpp-nu-min", "bench-cpp-nu-min", "bench-glr-mode",
             "bench-glr-f"],
    )
    def test_option_the_detector_does_not_read_is_usage_error(self, tmp_path, capsys, argv,
                                                                message):
        known = ["--mu0", "1000", "--sigma", "150"] if argv[0] == "detect" else []
        out = ["--trials", "25", "--out", str(tmp_path / "b")] if argv[0] == "bench" else []
        rc = main([*argv, *known, *out])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_options_at_their_defaults_are_accepted(self, capsys):
        from cpdetect.cli import build_parser

        args = build_parser().parse_args(["detect", "nile"])
        config, glr = CppConfig(), GlrConfig()
        parsed = (args.mode, args.f, args.variance_change, args.jacobi_iterations, args.nu_min)
        assert parsed == (config.estimation_mode, config.model.change_prior_f,
                          config.variance_change, config.jacobi_iterations, glr.nu_min)
        rc = main(["detect", "nile", "--detector", "glr", "--mu0", "1000", "--sigma", "150",
                   "--f", "0.005", "--mode", "plugin", "--jacobi-iterations", "1"])
        assert rc == 0
        rc = main(["detect", "nile", "--nu-min", "0.5"])
        assert rc == 0

    def test_mode_parses_to_estimation_mode(self):
        from cpdetect.cli import build_parser
        from cpdetect.gaussian_stats import EstimationMode

        parser = build_parser()
        assert parser.parse_args(["detect", "nile"]).mode is EstimationMode.PLUG_IN
        args = parser.parse_args(["bench", "--out", "x", "--mode", "sample"])
        assert args.mode is EstimationMode.POSTERIOR_SAMPLE
        with pytest.raises(SystemExit):
            parser.parse_args(["detect", "nile", "--mode", "exact"])


class TestSynthCommand:
    def test_synth_detect_round_trip(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        rc = main(
            ["synth", "--segment", "30:0:1", "--segment", "30:4:1",
             "--out", str(out), "--seed", "3"]
        )
        assert rc == 0
        truth = json.loads((tmp_path / "synth.csv.truth.json").read_text())
        assert truth["changepoints"] == [30]

        report_path = tmp_path / "report.json"
        rc = main(
            ["detect", str(out), "--mu0", "0", "--sigma", "1", "--format", "json",
             "--output", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert abs(report["p_last_argmax"] - 30) <= 2

    def test_single_segment_truth_is_empty(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        main(["synth", "--segment", "10:0:1", "--out", str(out)])
        truth = json.loads((tmp_path / "one.csv.truth.json").read_text())
        assert truth["changepoints"] == []

    def test_bad_segment_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synth", "--segment", "10:0", "--out", str(tmp_path / "x.csv")])

    def test_zero_length_segment_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--segment", "0:1:1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "bad segment '0:1:1'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("segment", ["5:nan:1", "5:0:inf", "5:inf:1", "5:0:nan"])
    def test_non_finite_segment_is_usage_error(self, tmp_path, capsys, segment):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--segment", segment, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"bad segment '{segment}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_seeded_synth_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--segment", "20:1:2", "--out", str(a), "--seed", "8"])
        main(["synth", "--segment", "20:1:2", "--out", str(b), "--seed", "8"])
        assert a.read_bytes() == b.read_bytes()


class TestBenchCommand:
    def test_small_bench_writes_all_outputs(self, tmp_path, capsys):
        prefix = tmp_path / "bench"
        rc = main(["bench", "--trials", "30", "--out", str(prefix)])
        assert rc == 0
        for kind in ("cpp", "glr"):
            with open(f"{prefix}_{kind}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["detector", "h", "alpha", "mean_delay", "n_trials", "n_oob"]
            assert len(rows) > 2
        comparison = json.loads((tmp_path / "bench_comparison.json").read_text())
        assert comparison["alpha"] == 0.05

    def test_degenerate_trial_count_is_flagged(self, tmp_path):
        prefix = tmp_path / "tiny"
        rc = main(["bench", "--trials", "1", "--out", str(prefix)])
        assert rc == 0
        comparison = json.loads((tmp_path / "tiny_comparison.json").read_text())
        assert "degenerate" in comparison.get("note", "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sigma_sweep_with_too_few_trials_writes_nan_rows(self, tmp_path, capsys, fmt):
        prefix = tmp_path / "few"
        rc = main(["bench", "--sigma-sweep", "1", "--trials", "19", "--format", fmt,
                   "--out", str(prefix)])
        assert rc == 0
        path = tmp_path / f"few_sigma.{fmt}"
        assert capsys.readouterr().out == f"wrote {path}\n"
        if fmt == "json":
            (row,) = json.loads(path.read_text())
        else:
            with open(path, newline="") as fh:
                (row,) = list(csv.DictReader(fh))
        assert list(row) == ["sigma", "cpp_delay", "glr_delay", "note"]
        assert float(row["sigma"]) == 1.0
        assert math.isnan(float(row["cpp_delay"])) and math.isnan(float(row["glr_delay"]))
        assert "cpp: sweep has no rows with a defined mean delay" in row["note"]
        assert "glr: sweep has no rows with a defined mean delay" in row["note"]

    def test_single_detector_json_output(self, tmp_path):
        prefix = tmp_path / "solo"
        rc = main(
            ["bench", "--detector", "glr", "--trials", "25", "--h", "3,6",
             "--format", "json", "--out", str(prefix)]
        )
        assert rc == 0
        rows = json.loads((tmp_path / "solo_glr.json").read_text())
        assert [row["h"] for row in rows] == [3.0, 6.0]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rho", "2"], "rho"),
            (["--sigma-sweep", "1,x"], "'x'"),
            (["--trials", "0"], "n_trials"),
            (["--h", "0.5,0.9"], "--detector"),
            (["--mu1", "inf", "--detector", "cpp"], "mu1"),
            (["--sigma", "nan"], "sigma"),
            (["--jobs", "0"], "jobs"),
            (["--mu1", "1e200", "--detector", "cpp"], "overflow"),
            (["--mu1", "1e200", "--detector", "glr"], "overflow"),
            (["--sigma", "1e-170", "--detector", "glr"], "sigma=1e-170 squares to 0.0"),
        ],
        ids=["rho", "sigma-sweep", "zero-trials", "h-without-detector", "mu1-inf",
             "sigma-nan", "zero-jobs", "cpp-rejects-trial-data", "glr-rejects-trial-data",
             "glr-sigma-square-underflows"],
    )
    def test_bad_bench_input_is_usage_error(self, tmp_path, capsys, flags, message):
        prefix = tmp_path / "bad"
        rc = main(["bench", "--trials", "25", *flags, "--out", str(prefix)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1  # one line, no traceback
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--detector", "glr", "--trials", "25", "--h", "3",
                   "--out", str(tmp_path / "missing" / "bench")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
