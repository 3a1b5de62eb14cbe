"""End-to-end tests of the command-line interface and series file I/O."""

import csv
import json

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
            (["--variance-change", "--mu0", "0"], "variance_change"),
            (["--variance-change", "--sigma", "1"], "variance_change"),
            (["--window-cap", "2"], "window_cap"),
            (["--jacobi-iterations", "0"], "jacobi_iterations"),
        ],
        ids=["variance-change-mu0", "variance-change-sigma", "window-cap", "jacobi"],
    )
    def test_config_the_kernel_rejects_is_usage_error(self, tmp_path, capsys, flags, message):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        rc = main(["detect", str(path), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

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

    def test_single_detector_json_output(self, tmp_path):
        prefix = tmp_path / "solo"
        rc = main(
            ["bench", "--detector", "glr", "--trials", "25", "--h", "3,6",
             "--format", "json", "--out", str(prefix)]
        )
        assert rc == 0
        rows = json.loads((tmp_path / "solo_glr.json").read_text())
        assert [row["h"] for row in rows] == [3.0, 6.0]
