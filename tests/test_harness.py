"""Tests for the Monte-Carlo delay/false-alarm benchmark harness."""

import math

import numpy as np
import pytest

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
    if oob:
        return TrialRecord(t0=t0, t_a=None, false_alarm=False, out_of_bounds=True)
    return TrialRecord(
        t0=t0, t_a=t0 + delay - 1, false_alarm=false_alarm, out_of_bounds=False
    )


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
        rec = run_trial(FAST_SPEC, detector, 0.0, np.random.default_rng(2),
                        kind=DetectorKind.GLR)
        assert rec.t_a == 1
        assert rec.false_alarm == (rec.t0 >= 1)

    def test_huge_threshold_goes_out_of_bounds(self):
        detector = make_detector(DetectorKind.GLR, FAST_SPEC)
        rec = run_trial(FAST_SPEC, detector, 1e12, np.random.default_rng(2),
                        kind=DetectorKind.GLR)
        assert rec.out_of_bounds
        assert rec.delay == math.inf

    def test_cpp_trial_detects_unit_shift(self):
        detector = make_detector(DetectorKind.CPP, FAST_SPEC, rng=0)
        rec = run_trial(FAST_SPEC, detector, 0.95, np.random.default_rng(4),
                        kind=DetectorKind.CPP)
        assert not rec.out_of_bounds
        if not rec.false_alarm:
            assert 2 <= rec.delay <= 101

    def test_alarm_at_t0_is_false_alarm(self):
        rec = TrialRecord(t0=10, t_a=10, false_alarm=True, out_of_bounds=False)
        assert rec.false_alarm
        first_detection = TrialRecord(t0=10, t_a=11, false_alarm=False, out_of_bounds=False)
        assert first_detection.delay == 2


class TestTrimmedMeanDelay:
    def test_one_to_hundred(self):
        records = [record(delay=d) for d in range(1, 101)]
        assert trimmed_mean_delay(records, 0.05) == pytest.approx(50.5)

    def test_all_equal(self):
        records = [record(delay=7) for _ in range(50)]
        assert trimmed_mean_delay(records, 0.05) == pytest.approx(7.0)

    def test_three_percent_infinities_are_trimmed_away(self):
        records = [record(delay=d) for d in range(1, 98)] + [record(oob=True)] * 3
        # 100 survivors, trim 5 from each end: delays 6..95 remain
        assert trimmed_mean_delay(records, 0.05) == pytest.approx(50.5)

    def test_oob_overflow_raises_with_count(self):
        records = [record(delay=10)] * 90 + [record(oob=True)] * 10
        with pytest.raises(InvalidAggregateError, match="10"):
            trimmed_mean_delay(records, 0.05)

    def test_too_few_survivors_raises(self):
        records = [record(delay=5)] * 10 + [record(delay=1, false_alarm=True)] * 40
        with pytest.raises(InvalidAggregateError):
            trimmed_mean_delay(records, 0.05)

    def test_false_alarms_are_excluded(self):
        records = [record(delay=10)] * 40 + [record(delay=1, false_alarm=True)] * 40
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
                records.append(
                    run_trial(FAST_SPEC, detector, h, data_rng, kind=DetectorKind.GLR)
                )
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

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_no_trials_rejected(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            threshold_sweep(FAST_SPEC, DetectorKind.GLR, thresholds=[3.0], n_trials=n_trials)

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


class TestInterpolateAtAlpha:
    def _sweep(self, pts):
        rows = tuple(
            SweepRow(detector="glr", h=float(i), alpha=a, mean_delay=d, n_trials=100, n_oob=0)
            for i, (a, d) in enumerate(pts)
        )
        return SweepResult(detector=DetectorKind.GLR, spec=FAST_SPEC, rows=rows)

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

    def test_detector_params_defaults(self):
        params = DetectorParams()
        assert params.change_prior_f == 0.005
        assert params.nu_min == 0.5
