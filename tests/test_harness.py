"""Tests for the Monte-Carlo delay/false-alarm benchmark harness."""

import math

import numpy as np
import pytest

from cpdetect import glr, harness
from cpdetect.harness import (
    DetectorKind,
    DetectorParams,
    InvalidAggregateError,
    ScenarioSpec,
    SweepResult,
    SweepRow,
    TrialRecord,
    _trial_streams,
    generate_trial_data,
    interpolate_at_alpha,
    make_detector,
    sample_t0,
    sigma_sweep,
    threshold_sweep,
    trimmed_mean_delay,
)
from oracles import run_trial

FAST_SPEC = ScenarioSpec(mu0=0.0, mu1=1.0, sigma=1.0, rho=0.02, seed=0)


def record(delay=None, t0=50, false_alarm=False, oob=False):
    """A detection with this delay, a false alarm at t0, or no alarm."""
    if oob:
        return TrialRecord(t0, None)
    return TrialRecord(t0, t0 if false_alarm else t0 + delay - 1)


class TestSampleT0:
    def test_mean_matches_geometric(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_t0(0.02, rng) for _ in range(100_000)])
        big = rng.geometric(0.02, size=1_000_000)
        assert big.mean() == pytest.approx(50.0, abs=0.5)
        assert draws.mean() == pytest.approx(50.0, abs=1.5)
        assert draws.min() >= 1

    def test_head_probability(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_t0(0.5, rng) for _ in range(10_000)])
        assert (draws == 1).mean() == pytest.approx(0.5, abs=0.02)

    def test_fixed_seed_reproducible(self):
        a = sample_t0(0.02, np.random.default_rng(7))
        b = sample_t0(0.02, np.random.default_rng(7))
        assert a == b

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            sample_t0(0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_t0(1.0, np.random.default_rng(0))


class TestGenerateTrialData:
    def test_stream_length_and_shift(self):
        spec = ScenarioSpec(mu0=0.0, mu1=100.0, sigma=0.01, rho=0.1, seed=0)
        t0, xs = generate_trial_data(spec, np.random.default_rng(3))
        assert len(xs) == t0 + spec.horizon_after_t0
        # the shift applies from t0 onward (1-based), i.e. xs[t0-1:]
        assert np.all(xs[: t0 - 1] < 50)
        assert np.all(xs[t0 - 1 :] > 50)

    def test_data_matching_between_detector_kinds(self):
        for trial in range(5):
            data_rng_a, _ = _trial_streams(FAST_SPEC, trial)
            data_rng_b, _ = _trial_streams(FAST_SPEC, trial)
            t0_a, xs_a = generate_trial_data(FAST_SPEC, data_rng_a)
            t0_b, xs_b = generate_trial_data(FAST_SPEC, data_rng_b)
            assert t0_a == t0_b
            np.testing.assert_array_equal(xs_a, xs_b)


class TestRunTrial:
    def test_threshold_zero_alarms_immediately(self):
        detector = make_detector(DetectorKind.GLR, FAST_SPEC)
        rec = run_trial(FAST_SPEC, detector, 0.0, np.random.default_rng(2))
        assert rec.t_a == 1
        assert rec.false_alarm == (rec.t0 >= 1)

    def test_huge_threshold_goes_out_of_bounds(self):
        detector = make_detector(DetectorKind.GLR, FAST_SPEC)
        rec = run_trial(FAST_SPEC, detector, 1e12, np.random.default_rng(2))
        assert rec.out_of_bounds
        assert rec.delay == math.inf

    def test_cpp_trial_detects_unit_shift(self):
        detector = make_detector(DetectorKind.CPP, FAST_SPEC, rng=0)
        rec = run_trial(FAST_SPEC, detector, 0.95, np.random.default_rng(4))
        assert not rec.out_of_bounds
        if not rec.false_alarm:
            assert 2 <= rec.delay <= 101

    def test_alarm_at_t0_is_false_alarm(self):
        rec = TrialRecord(t0=10, t_a=10)
        assert rec.false_alarm and not rec.out_of_bounds
        first_detection = TrialRecord(t0=10, t_a=11)
        assert not first_detection.false_alarm and not first_detection.out_of_bounds
        assert first_detection.delay == 2
        no_alarm = TrialRecord(t0=10, t_a=None)
        assert no_alarm.out_of_bounds and not no_alarm.false_alarm
        assert no_alarm.delay == math.inf


class TestTrimmedMeanDelay:
    def test_one_to_hundred(self):
        # a detection's delay is at least 2: an alarm at t0 is a false alarm
        records = [record(delay=d) for d in range(2, 102)]
        assert trimmed_mean_delay(records, 0.05) == pytest.approx(51.5)

    def test_all_equal(self):
        records = [record(delay=7) for _ in range(50)]
        assert trimmed_mean_delay(records, 0.05) == pytest.approx(7.0)

    def test_three_percent_infinities_are_trimmed_away(self):
        records = [record(delay=d) for d in range(2, 99)] + [record(oob=True)] * 3
        # 100 survivors, trim 5 from each end: delays 7..96 remain
        assert trimmed_mean_delay(records, 0.05) == pytest.approx(51.5)

    def test_oob_overflow_raises_with_count(self):
        records = [record(delay=10)] * 90 + [record(oob=True)] * 10
        with pytest.raises(InvalidAggregateError, match="10"):
            trimmed_mean_delay(records, 0.05)

    def test_too_few_survivors_raises(self):
        records = [record(delay=5)] * 10 + [record(false_alarm=True)] * 40
        with pytest.raises(InvalidAggregateError):
            trimmed_mean_delay(records, 0.05)

    def test_false_alarms_are_excluded(self):
        records = [record(delay=10)] * 40 + [record(false_alarm=True)] * 40
        assert trimmed_mean_delay(records, 0.05) == pytest.approx(10.0)

    def test_robust_to_perturbing_largest_four_percent(self):
        rng = np.random.default_rng(0)
        delays = sorted(rng.integers(2, 60, size=100))
        records = [record(delay=int(d)) for d in delays]
        base = trimmed_mean_delay(records, 0.05)
        perturbed = [record(delay=int(d)) for d in delays[:96]] + [record(oob=True)] * 4
        assert trimmed_mean_delay(perturbed, 0.05) == pytest.approx(base)


class TestThresholdSweep:
    def test_alpha_monotone_in_threshold(self):
        sweep = threshold_sweep(
            FAST_SPEC, DetectorKind.GLR, thresholds=[0.5, 2.0, 5.0, 10.0], n_trials=100
        )
        alphas = [row.alpha for row in sweep.rows]
        assert alphas == sorted(alphas, reverse=True)

    def test_bit_reproducible(self):
        a = threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[3.0, 6.0], n_trials=50)
        b = threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[3.0, 6.0], n_trials=50)
        assert a.rows == b.rows

    def test_trace_path_matches_run_trial(self):
        # The sweep thresholds a single decision trace per trial; that must
        # agree with running each threshold in its own fresh trial.
        thresholds = [2.0, 5.0, 9.0]
        sweep = threshold_sweep(
            FAST_SPEC, DetectorKind.GLR, thresholds=thresholds, n_trials=30
        )
        for hi, h in enumerate(thresholds):
            records = []
            for trial in range(30):
                data_rng, det_rng = _trial_streams(FAST_SPEC, trial)
                detector = make_detector(DetectorKind.GLR, FAST_SPEC, rng=det_rng)
                records.append(run_trial(FAST_SPEC, detector, h, data_rng))
            alpha = sum(r.false_alarm for r in records) / 30
            assert sweep.rows[hi].alpha == pytest.approx(alpha)

    def test_unreachable_threshold_gives_nan_delay(self):
        sweep = threshold_sweep(
            FAST_SPEC, DetectorKind.GLR, thresholds=[1e12], n_trials=25
        )
        assert sweep.rows[0].alpha == 0.0
        assert math.isnan(sweep.rows[0].mean_delay)
        assert sweep.rows[0].n_oob == 25

    def test_zero_threshold_alpha_near_one(self):
        # h=0 alarms at the first step; false alarm whenever t0 >= 1, i.e.
        # always, so alpha = 1 exactly.
        sweep = threshold_sweep(
            FAST_SPEC, DetectorKind.GLR, thresholds=[0.0], n_trials=50
        )
        assert sweep.rows[0].alpha == 1.0

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[], n_trials=10)

    @pytest.mark.parametrize("n_trials", [0, -1, 2.5, True])
    def test_no_trials_rejected(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[3.0], n_trials=n_trials)

    def test_detector_failure_names_its_step_and_trial(self, monkeypatch):
        steps = []

        def failing_decision(detector):
            steps.append(len(steps) + 1)
            if len(steps) == 3:
                raise ZeroDivisionError("boom")
            return 0.0

        monkeypatch.setattr(glr, "glr_decision", failing_decision)
        t0, _ = generate_trial_data(FAST_SPEC, _trial_streams(FAST_SPEC, 0)[0])
        with pytest.raises(RuntimeError) as exc:
            threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[1e12], n_trials=2)
        assert str(exc.value) == f"detector failed at step 3 of trial 0 (t0={t0})"
        assert isinstance(exc.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("kind", [DetectorKind.CPP, DetectorKind.GLR], ids=["cpp", "glr"])
    def test_rejected_data_is_a_value_error_naming_its_step_and_trial(self, kind):
        # the first post-change point's square overflows the prefix sums
        spec = ScenarioSpec(mu1=1e200, seed=0)
        t0, _ = generate_trial_data(spec, _trial_streams(spec, 0)[0])
        with pytest.raises(ValueError) as exc:
            threshold_sweep(spec, kind, thresholds=[1e12], n_trials=3)
        message = str(exc.value)
        assert message.startswith(f"detector failed at step {t0} of trial 0 (t0={t0}): ")
        assert "overflow" in message
        assert isinstance(exc.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "kind, thresholds",
        [(DetectorKind.GLR, [4.0]), (DetectorKind.CPP, [0.5, 0.9])],
        ids=["glr", "cpp"],
    )
    def test_parallel_jobs_match_serial(self, kind, thresholds):
        # the CPP trials run kernel states in the forked workers
        serial = threshold_sweep(FAST_SPEC, kind, thresholds=thresholds, n_trials=40, jobs=1)
        parallel = threshold_sweep(FAST_SPEC, kind, thresholds=thresholds, n_trials=40, jobs=2)
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[3.0], n_trials=5, jobs=jobs)

    @pytest.mark.parametrize("jobs, n_trials, workers", [(64, 5, [5]), (3, 10, [3]), (2, 1, [])],
                             ids=["more-jobs-than-trials", "fewer-jobs", "one-trial"])
    def test_never_more_workers_than_trials(self, monkeypatch, jobs, n_trials, workers):
        started = []

        class InProcessPool:  # records its size and maps here, starting no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        sweep = threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[4.0],
                                n_trials=n_trials, jobs=jobs)
        assert started == workers
        assert sweep.rows == threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[4.0],
                                             n_trials=n_trials).rows


class TestInterpolateAtAlpha:
    def _sweep(self, pts):
        rows = tuple(
            SweepRow(detector="glr", h=float(i), alpha=a, mean_delay=d, n_trials=100, n_oob=0)
            for i, (a, d) in enumerate(pts)
        )
        return SweepResult(rows=rows)

    def test_exact_grid_hit(self):
        sweep = self._sweep([(0.01, 20.0), (0.05, 12.0), (0.2, 8.0)])
        assert interpolate_at_alpha(sweep, 0.05) == pytest.approx(12.0)

    def test_midpoint_is_arithmetic_mean(self):
        sweep = self._sweep([(0.04, 10.0), (0.08, 14.0)])
        assert interpolate_at_alpha(sweep, 0.06) == pytest.approx(12.0)

    def test_alpha_outside_range_raises(self):
        sweep = self._sweep([(0.1, 10.0), (0.5, 4.0)])
        with pytest.raises(ValueError):
            interpolate_at_alpha(sweep, 0.01)

    def test_nan_rows_are_skipped(self):
        sweep = self._sweep([(0.0, math.nan), (0.04, 10.0), (0.08, 14.0)])
        assert interpolate_at_alpha(sweep, 0.06) == pytest.approx(12.0)


class TestSigmaSweep:
    def test_too_few_trials_give_nan_delays_with_notes(self):
        rows = sigma_sweep(FAST_SPEC, [1.0, 2.0], n_trials=5)
        assert [row.sigma for row in rows] == [1.0, 2.0]
        for row in rows:
            assert math.isnan(row.cpp_delay) and math.isnan(row.glr_delay)
            assert row.note == (
                "cpp: sweep has no rows with a defined mean delay; "
                "glr: sweep has no rows with a defined mean delay"
            )
        sigma, cpp_delay, glr_delay = rows[0]  # a row still unpacks as a triple
        assert sigma == 1.0 and math.isnan(cpp_delay) and math.isnan(glr_delay)

    def test_defined_delays_have_no_note(self):
        (row,) = sigma_sweep(FAST_SPEC, [1.0], n_trials=60)
        assert math.isfinite(row.cpp_delay) and math.isfinite(row.glr_delay)
        assert row.note == ""


class TestSpecValidation:
    def test_scenario_bounds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(rho=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(sigma=-1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(horizon_after_t0=0)

    @pytest.mark.parametrize("field, value", [
        ("mu1", math.inf), ("mu0", math.nan), ("sigma", math.inf), ("mu1", "1"),
        ("sigma", True), ("mu0", 10**400), ("horizon_after_t0", 2.5),
        ("horizon_after_t0", True), ("horizon_after_t0", "100"), ("sigma", 1e160),
        ("sigma", 1e-170),
    ], ids=["mu1-inf", "mu0-nan", "sigma-inf", "mu1-str", "sigma-bool", "mu0-overflows",
            "horizon-float", "horizon-bool", "horizon-str", "sigma-square-overflows",
            "sigma-square-underflows"])
    def test_scenario_rejects_bad_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec(**{field: value})

    def test_scenario_numbers_are_python_numbers(self):
        spec = ScenarioSpec(mu1=np.float32(1.5), sigma=2, horizon_after_t0=np.int64(50))
        assert type(spec.mu1) is float and spec.mu1 == 1.5
        assert type(spec.sigma) is float and type(spec.horizon_after_t0) is int

    def test_detector_params_defaults(self):
        params = DetectorParams()
        assert params.change_prior_f == 0.005
        assert params.nu_min == 0.5
