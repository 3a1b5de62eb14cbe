"""Tests for the single-window changepoint posteriors in tests/oracles.py.

The reference here is a brute-force re-derivation written directly from the
split likelihood: evaluate every admissible split with per-point log
densities and normalize.  The oracle functions must agree with it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdetect.gaussian_stats import EstimationMode
from cpdetect.kernel import ProbabilityVector, SingleCpModel
from oracles import posterior_exactly_one, posterior_zero_or_one


def _log_normal_pdf(xs, mu, sigma):
    xs = np.asarray(xs, dtype=float)
    return float(
        np.sum(-0.5 * np.log(2 * np.pi) - np.log(sigma) - (xs - mu) ** 2 / (2 * sigma**2))
    )


def brute_force_exactly_one(window, mu0, sigma):
    """Independent oracle: plug-in split posterior with known mu0 and sigma.

    For each split i the pre-change part is scored under N(mu0, sigma^2)
    and the post-change part under N(sample mean, sigma^2).
    """
    window = np.asarray(window, dtype=float)
    n = len(window)
    logw = []
    for i in range(1, n):
        pre, post = window[:i], window[i:]
        mu1 = post.mean()
        logw.append(_log_normal_pdf(pre, mu0, sigma) + _log_normal_pdf(post, mu1, sigma))
    logw = np.array(logw)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def brute_force_zero_or_one(window, mu0, sigma, f):
    """Independent oracle for the zero-or-one posterior (known parameters)."""
    window = np.asarray(window, dtype=float)
    n = len(window)
    log_h0 = n * math.log1p(-f) + _log_normal_pdf(window, mu0, sigma)
    logw = [log_h0]
    split_prior = math.log(f) + (n - 1) * math.log1p(-f)
    for i in range(1, n):
        pre, post = window[:i], window[i:]
        logw.append(
            split_prior
            + _log_normal_pdf(pre, mu0, sigma)
            + _log_normal_pdf(post, post.mean(), sigma)
        )
    logw = np.array(logw)
    w = np.exp(logw - logw.max())
    w = w / w.sum()
    return w[0], w[1:]


KNOWN = SingleCpModel(mu0=0.0, sigma=1.0)


class TestProbabilityVector:
    def test_argmax_reports_absolute_position(self):
        vec = ProbabilityVector(values=np.array([0.1, 0.7, 0.2]), start=5)
        assert vec.argmax() == 6

    def test_argmax_tie_goes_to_smallest_index(self):
        vec = ProbabilityVector(values=np.array([0.4, 0.4, 0.2]), start=1)
        assert vec.argmax() == 1

    def test_prob_at_out_of_window_is_zero(self):
        vec = ProbabilityVector(values=np.array([0.5, 0.5]), start=3)
        assert vec.prob_at(2) == 0.0
        assert vec.prob_at(4) == 0.5

    def test_empty_argmax_raises(self):
        with pytest.raises(ValueError):
            ProbabilityVector(values=np.array([])).argmax()


class TestPosteriorExactlyOne:
    def test_two_points_single_split_gets_all_mass(self):
        vec = posterior_exactly_one([-1.0, 1.0], KNOWN)
        assert len(vec) == 1
        assert vec.total() == pytest.approx(1.0, abs=1e-12)
        assert vec.argmax() == 1

    def test_step_series_argmax_at_true_split(self):
        window = np.concatenate([np.zeros(20), np.full(20, 5.0)])
        rng = np.random.default_rng(3)
        window += rng.standard_normal(40)  # sigma=1 noise
        vec = posterior_exactly_one(window, KNOWN)
        assert vec.argmax() == 20

    def test_constant_series_is_near_uniform(self):
        vec = posterior_exactly_one(np.zeros(30), KNOWN)
        uniform = 1.0 / len(vec)
        assert vec.values.max() <= 3 * uniform

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            window = rng.standard_normal(25)
            vec = posterior_exactly_one(window, KNOWN)
            oracle = brute_force_exactly_one(window, 0.0, 1.0)
            np.testing.assert_allclose(vec.values, oracle, atol=1e-12)

    def test_window_too_short_raises(self):
        with pytest.raises(ValueError):
            posterior_exactly_one([1.0], KNOWN)

    def test_plug_in_mode_is_deterministic(self):
        window = np.random.default_rng(0).standard_normal(15)
        a = posterior_exactly_one(window, KNOWN)
        b = posterior_exactly_one(window, KNOWN)
        np.testing.assert_array_equal(a.values, b.values)

    def test_sample_mode_deterministic_given_rng_state(self):
        window = np.random.default_rng(0).standard_normal(15)
        a = posterior_exactly_one(
            window, KNOWN, mode=EstimationMode.POSTERIOR_SAMPLE,
            rng=np.random.default_rng(7),
        )
        b = posterior_exactly_one(
            window, KNOWN, mode=EstimationMode.POSTERIOR_SAMPLE,
            rng=np.random.default_rng(7),
        )
        np.testing.assert_array_equal(a.values, b.values)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shift=st.floats(-5, 5),
        n=st.integers(4, 40),
    )
    def test_location_equivariance(self, seed, shift, n):
        window = np.random.default_rng(seed).standard_normal(n)
        base = posterior_exactly_one(window, SingleCpModel(mu0=0.0, sigma=1.0))
        moved = posterior_exactly_one(
            window + shift, SingleCpModel(mu0=shift, sigma=1.0)
        )
        np.testing.assert_allclose(base.values, moved.values, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
    def test_normalization(self, seed, n):
        window = np.random.default_rng(seed).standard_normal(n)
        vec = posterior_exactly_one(window, KNOWN)
        assert vec.total() == pytest.approx(1.0, abs=1e-12)

    def test_estimated_parameters_also_normalize(self):
        window = np.random.default_rng(5).standard_normal(30) * 3 + 7
        vec = posterior_exactly_one(window, SingleCpModel(mu0=None, sigma=None))
        assert vec.total() == pytest.approx(1.0, abs=1e-12)


class TestPosteriorZeroOrOne:
    def test_long_constant_series_favors_no_change(self):
        model = SingleCpModel(mu0=0.0, sigma=1.0, change_prior_f=0.02)
        p_none, vec = posterior_zero_or_one(np.zeros(30), model)
        # flat data at mu0: likelihoods cancel and the prior dominates
        assert p_none > 0.5
        assert p_none + vec.total() == pytest.approx(1.0, abs=1e-12)

    def test_three_sigma_jump_is_detected_and_localized(self):
        hits, strong = 0, 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            window = rng.standard_normal(60)
            window[30:] += 3.0
            p_none, vec = posterior_zero_or_one(window, KNOWN)
            strong += p_none < 0.1
            hits += abs(vec.argmax() - 30) <= 3
        assert strong >= 95
        assert hits >= 95

    def test_doubling_f_increases_change_mass(self):
        window = np.random.default_rng(2).standard_normal(40)
        masses = []
        for f in (0.0025, 0.005, 0.01, 0.02, 0.04):
            _, vec = posterior_zero_or_one(
                window, SingleCpModel(mu0=0.0, sigma=1.0, change_prior_f=f)
            )
            masses.append(vec.total())
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            window = rng.standard_normal(20)
            p_none, vec = posterior_zero_or_one(window, KNOWN)
            oracle_none, oracle_vec = brute_force_zero_or_one(window, 0.0, 1.0, 0.005)
            assert p_none == pytest.approx(oracle_none, abs=1e-12)
            np.testing.assert_allclose(vec.values, oracle_vec, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 50))
    def test_normalization(self, seed, n):
        window = np.random.default_rng(seed).standard_normal(n)
        p_none, vec = posterior_zero_or_one(window, KNOWN)
        assert p_none + vec.total() == pytest.approx(1.0, abs=1e-12)

    def test_f_limits(self):
        window = np.random.default_rng(4).standard_normal(30)
        p_none_small, _ = posterior_zero_or_one(
            window, SingleCpModel(mu0=0.0, sigma=1.0, change_prior_f=1e-9)
        )
        p_none_large, _ = posterior_zero_or_one(
            window, SingleCpModel(mu0=0.0, sigma=1.0, change_prior_f=1 - 1e-9)
        )
        assert p_none_small > 0.999
        assert p_none_large < 1e-6

    def test_location_equivariance(self):
        window = np.random.default_rng(8).standard_normal(25)
        p0, v0 = posterior_zero_or_one(window, SingleCpModel(mu0=0.0, sigma=1.0))
        p1, v1 = posterior_zero_or_one(window + 10, SingleCpModel(mu0=10.0, sigma=1.0))
        assert p0 == pytest.approx(p1, abs=1e-9)
        np.testing.assert_allclose(v0.values, v1.values, atol=1e-9)

    def test_single_point_window(self):
        p_none, vec = posterior_zero_or_one([1.5], KNOWN)
        assert len(vec) == 0
        assert p_none == pytest.approx(1.0)


class TestModelValidation:
    def test_f_bounds(self):
        with pytest.raises(ValueError):
            SingleCpModel(change_prior_f=0.0)
        with pytest.raises(ValueError):
            SingleCpModel(change_prior_f=1.0)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            SingleCpModel(sigma=-1.0)
