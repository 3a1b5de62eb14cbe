"""Tests for prefix statistics and the variance floor, and for the Gaussian
likelihoods, sufficient statistics and sampling in tests/oracles.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdetect.gaussian_stats import (
    DEFAULT_FLOOR_SCALE,
    EstimationMode,
    PrefixStats,
)
from cpdetect.kernel import _series_floor
from oracles import (
    GaussianParams,
    GaussianSegmentStats,
    InsufficientDataError,
    estimate_draw,
    log_likelihood_point,
    log_likelihood_segment,
    posterior_sigma2_params,
    sample_mu,
    sample_sigma2,
)

# ln(1/sqrt(2*pi)) and the log-density at x=1.7, mu=0.3, sigma=2.0, both
# evaluated with 40-digit arbitrary-precision arithmetic (mpmath).
LOG_STD_NORMAL_MODE = -0.9189385332046727417803297
LOG_PDF_17_03_20 = -1.857085713764618051197562


class TestLogLikelihoodPoint:
    def test_standard_normal_mode(self):
        assert log_likelihood_point(0.0, GaussianParams(0.0, 1.0)) == pytest.approx(
            LOG_STD_NORMAL_MODE, abs=1e-12
        )

    @given(mu=st.floats(-1e3, 1e3), sigma=st.floats(1e-2, 1e2))
    def test_one_sigma_offset_is_half_below_mode(self, mu, sigma):
        # mu/sigma kept moderate so that mu + sigma is representable
        # without the cancellation that would dominate the 0.5 identity
        params = GaussianParams(mu, sigma)
        at_mode = log_likelihood_point(mu, params)
        offset = log_likelihood_point(mu + sigma, params)
        assert offset == pytest.approx(at_mode - 0.5, abs=1e-7)

    def test_matches_arbitrary_precision_evaluation(self):
        got = log_likelihood_point(1.7, GaussianParams(0.3, 2.0))
        assert got == pytest.approx(LOG_PDF_17_03_20, abs=1e-12)

    def test_rejects_non_finite_x(self):
        with pytest.raises(ValueError):
            log_likelihood_point(math.nan, GaussianParams(0.0, 1.0))
        with pytest.raises(ValueError):
            log_likelihood_point(math.inf, GaussianParams(0.0, 1.0))

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            GaussianParams(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianParams(math.nan, 1.0)


class TestLogLikelihoodSegment:
    def test_empty_segment_is_zero(self):
        stats = GaussianSegmentStats(n=0)
        assert log_likelihood_segment(stats, GaussianParams(0.3, 2.0)) == 0.0

    def test_single_point(self):
        stats = GaussianSegmentStats.from_data([0.0])
        got = log_likelihood_segment(stats, GaussianParams(0.0, 1.0))
        assert got == pytest.approx(LOG_STD_NORMAL_MODE, abs=1e-12)

    def test_three_point_segment_matches_per_point_sum(self):
        data = [0.5, -0.3, 1.1]
        params = GaussianParams(0.2, 0.9)
        expected = sum(log_likelihood_point(x, params) for x in data)
        got = log_likelihood_segment(GaussianSegmentStats.from_data(data), params)
        assert got == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(st.floats(-100, 100), min_size=1, max_size=1000),
        mu=st.floats(-10, 10),
        sigma=st.floats(0.1, 10),
    )
    def test_closed_form_equals_per_point_sum(self, data, mu, sigma):
        params = GaussianParams(mu, sigma)
        expected = sum(log_likelihood_point(x, params) for x in data)
        got = log_likelihood_segment(GaussianSegmentStats.from_data(data), params)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestSegmentStats:
    def test_empty_segment_requires_zero_sums(self):
        with pytest.raises(ValueError):
            GaussianSegmentStats(n=0, sum=1.0)
        with pytest.raises(ValueError):
            GaussianSegmentStats(n=-1)

    def test_mean_of_empty_segment_raises(self):
        with pytest.raises(InsufficientDataError):
            _ = GaussianSegmentStats(n=0).mean

    def test_centered_sumsq_nonnegative_for_near_constant_data(self):
        stats = GaussianSegmentStats.from_data([1e8 + 0.1] * 50)
        assert stats.centered_sumsq >= 0.0


class TestPrefixStats:
    def test_segment_queries_match_direct_computation(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal(40)
        prefix = PrefixStats(data)
        S, Q = prefix.arrays()
        assert len(prefix) == len(S) - 1 == 40
        for a in range(0, 41, 7):
            for b in range(a, 41, 5):
                direct = GaussianSegmentStats.from_data(data[a:b])
                assert S[b] - S[a] == pytest.approx(direct.sum, abs=1e-9)
                assert Q[b] - Q[a] == pytest.approx(direct.sumsq, abs=1e-9)

    def test_append_rejects_non_finite(self):
        prefix = PrefixStats()
        with pytest.raises(ValueError):
            prefix.append(math.inf)
        assert len(prefix) == 0

    @pytest.mark.parametrize("ref", [3.0, None], ids=["known", "first-observation"])
    def test_sums_are_taken_about_the_reference_point(self, ref):
        data = 3.0 + np.random.default_rng(9).standard_normal(30)
        prefix = PrefixStats(data, ref=ref)
        point = data[0] if ref is None else ref
        assert prefix.ref == point
        for got, want in zip(prefix.arrays(), PrefixStats(data - point).arrays()):
            np.testing.assert_array_equal(got, want)

    def test_overflow_names_the_deviation_from_the_reference_point(self):
        prefix = PrefixStats([1e200], ref=None)
        with pytest.raises(ValueError, match=r"observation -1e\+200 lies -2e\+200 from the "
                                             r"reference point 1e\+200: its square would "
                                             r"overflow the sums"):
            prefix.append(-1e200)
        assert len(prefix) == 1

    def test_arrays_are_read_only_views_kept_across_growth(self):
        data = np.random.default_rng(8).standard_normal(70)
        prefix = PrefixStats(data[:20])
        S20, _ = prefix.arrays()
        for x in data[20:]:
            prefix.append(float(x))
        S, Q = prefix.arrays()
        ref_s, ref_q = [0.0], [0.0]
        for x in data.tolist():
            ref_s.append(ref_s[-1] + x)
            ref_q.append(ref_q[-1] + x * x)
        np.testing.assert_array_equal(S, ref_s)
        np.testing.assert_array_equal(Q, ref_q)
        np.testing.assert_array_equal(S20, ref_s[:21])
        assert not S.flags.writeable and not Q.flags.writeable
        assert S.dtype == Q.dtype == np.float64


class TestPosteriorSigma2Params:
    def test_two_identical_points(self):
        assert posterior_sigma2_params(GaussianSegmentStats.from_data([1.0, 1.0])) == (1, 0.0)

    def test_zero_two(self):
        dof, scale = posterior_sigma2_params(GaussianSegmentStats.from_data([0.0, 2.0]))
        assert dof == 1
        assert scale == pytest.approx(2.0)

    def test_one_to_five(self):
        dof, scale = posterior_sigma2_params(
            GaussianSegmentStats.from_data([1, 2, 3, 4, 5])
        )
        assert dof == 4
        assert scale == pytest.approx(2.5)

    def test_single_point_raises(self):
        with pytest.raises(InsufficientDataError):
            posterior_sigma2_params(GaussianSegmentStats.from_data([1.0]))


class TestSampleSigma2:
    def test_zero_scale_returns_floor(self):
        rng = np.random.default_rng(0)
        assert sample_sigma2(3, 0.0, rng, floor=1e-6) == 1e-6

    def test_deterministic_under_fixed_seed(self):
        a = sample_sigma2(4, 2.5, np.random.default_rng(123))
        b = sample_sigma2(4, 2.5, np.random.default_rng(123))
        assert a == b

    def test_mean_matches_inverse_chi_square(self):
        # Inv-chi^2(dof, scale) has mean dof*scale/(dof-2) for dof > 2.
        rng = np.random.default_rng(42)
        dof, scale = 10, 1.0
        draws = dof * scale / rng.chisquare(dof, size=1_000_000)
        assert draws.mean() == pytest.approx(1.25, abs=0.01)
        single = np.array(
            [sample_sigma2(dof, scale, np.random.default_rng(s)) for s in range(2000)]
        )
        assert single.mean() == pytest.approx(1.25, abs=0.1)


class TestSampleMu:
    def test_degenerate_spread_returns_mean(self):
        stats = GaussianSegmentStats.from_data([2.0, 4.0])
        draw = sample_mu(stats, 1e-30, np.random.default_rng(0))
        assert draw == pytest.approx(3.0, abs=1e-9)

    def test_deterministic_under_fixed_seed(self):
        stats = GaussianSegmentStats.from_data([1.0, 2.0, 3.0])
        a = sample_mu(stats, 2.0, np.random.default_rng(9))
        b = sample_mu(stats, 2.0, np.random.default_rng(9))
        assert a == b

    def test_moments_at_one_million_draws(self):
        stats = GaussianSegmentStats(n=16, sum=48.0, sumsq=200.0)  # mean 3
        rng = np.random.default_rng(1)
        draws = stats.mean + math.sqrt(4.0 / 16) * rng.standard_normal(1_000_000)
        assert draws.mean() == pytest.approx(3.0, abs=0.01)
        assert draws.var() == pytest.approx(0.25, abs=0.01)
        # spot-check that sample_mu draws from the same law
        spot = np.array(
            [sample_mu(stats, 4.0, np.random.default_rng(s)) for s in range(2000)]
        )
        assert spot.mean() == pytest.approx(3.0, abs=0.05)

    def test_empty_segment_raises(self):
        with pytest.raises(InsufficientDataError):
            sample_mu(GaussianSegmentStats(n=0), 1.0, np.random.default_rng(0))


class TestEstimateDraw:
    def test_plug_in_on_zero_two(self):
        draw = estimate_draw(
            GaussianSegmentStats.from_data([0.0, 2.0]), EstimationMode.PLUG_IN
        )
        assert draw.mu == pytest.approx(1.0)
        assert draw.sigma2 == pytest.approx(2.0)
        assert draw.source is EstimationMode.PLUG_IN

    def test_plug_in_on_repeated_value_hits_floor(self):
        draw = estimate_draw(
            GaussianSegmentStats.from_data([5.0, 5.0, 5.0]),
            EstimationMode.PLUG_IN,
            floor=1e-4,
        )
        assert draw.sigma2 == 1e-4

    def test_posterior_sample_deterministic_under_seed(self):
        stats = GaussianSegmentStats.from_data([0.1, 0.9, 0.4, 1.2])
        a = estimate_draw(stats, EstimationMode.POSTERIOR_SAMPLE, np.random.default_rng(5))
        b = estimate_draw(stats, EstimationMode.POSTERIOR_SAMPLE, np.random.default_rng(5))
        assert (a.mu, a.sigma2) == (b.mu, b.sigma2)

    def test_posterior_sample_requires_rng(self):
        stats = GaussianSegmentStats.from_data([0.0, 1.0])
        with pytest.raises(ValueError):
            estimate_draw(stats, EstimationMode.POSTERIOR_SAMPLE, rng=None)


def series_floor(xs) -> float:
    return _series_floor(*PrefixStats(xs).arrays())


class TestVarianceFloor:
    def test_scales_with_global_variance(self):
        xs = [1.0, 3.0, 5.0]
        assert np.var(xs, ddof=1) == 4.0
        assert series_floor(xs) == pytest.approx(np.var(xs, ddof=1) * DEFAULT_FLOOR_SCALE)

    def test_defaults_when_undefined(self):
        assert np.var([2.5] * 3, ddof=1) == 0.0
        assert series_floor([2.5] * 3) == DEFAULT_FLOOR_SCALE
        assert series_floor([2.5]) == DEFAULT_FLOOR_SCALE  # one point: no sample variance
