"""Tests for the per-segment-variance changepoint posterior."""

import numpy as np
import pytest

from cpdetect.gaussian_stats import EstimationMode, PrefixStats
from cpdetect import kernel
from cpdetect.kernel import CppConfig, CppState, SingleCpModel, build_conditional_tables
from oracles import (
    InsufficientDataError,
    dense_table,
    posterior_exactly_one_var,
    posterior_zero_or_one_var,
)


class TestPosteriorExactlyOneVar:
    def test_window_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            posterior_exactly_one_var([1.0, 2.0, 3.0])

    def test_splits_outside_two_per_side_get_zero(self):
        vec = posterior_exactly_one_var(np.random.default_rng(0).standard_normal(10))
        # positions 1 and n-1 leave a 1-point segment on one side
        assert vec.prob_at(1) == 0.0
        assert vec.prob_at(9) == 0.0
        assert vec.total() == pytest.approx(1.0, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal(40)
        xs[20:] *= 3.0
        base = posterior_exactly_one_var(xs)
        for c in (0.1, 7.0, 1234.5):
            scaled = posterior_exactly_one_var(c * xs)
            np.testing.assert_allclose(scaled.values, base.values, atol=1e-6)

    def _seed_averaged_null_posterior(self):
        acc = None
        for seed in range(100):
            rng = np.random.default_rng(seed)
            half = rng.standard_normal(30)
            xs = np.concatenate([half, half])
            vec = posterior_exactly_one_var(xs, floor=1e-8 * xs.var())
            acc = vec.values if acc is None else acc + vec.values
        return acc / 100

    def test_identical_halves_interior_stays_near_uniform(self):
        avg = self._seed_averaged_null_posterior()
        uniform = 1.0 / (avg > 0).sum()
        # splits with at least 5 points per side
        assert avg[4:-4].max() <= 5 * uniform

    @pytest.mark.xfail(
        strict=True,
        reason="splits leaving a 2-point segment overfit that segment's "
        "variance, so the seed-averaged posterior spikes at the window "
        "edges; the variance floor only guards exactly-degenerate runs",
    )
    def test_identical_halves_full_window_near_uniform(self):
        avg = self._seed_averaged_null_posterior()
        uniform = 1.0 / (avg > 0).sum()
        assert avg.max() <= 5 * uniform

    def test_variance_doubling_is_localized(self):
        # the hit rate of this Monte-Carlo check sits right at the 70%
        # threshold (69-72/100 depending on the seed batch)
        hits = 0
        for seed in range(100, 200):
            rng = np.random.default_rng(seed)
            xs = np.concatenate(
                [rng.standard_normal(50), rng.standard_normal(50) * 2.0]
            )
            vec = posterior_exactly_one_var(xs)
            hits += abs(vec.argmax() - 50) <= 5
        assert hits >= 70

    def test_floor_prevents_identical_run_blowup(self):
        rng = np.random.default_rng(9)
        xs = rng.standard_normal(30)
        xs[10:17] = 0.42  # run of 7 identical values
        vec = posterior_exactly_one_var(xs, floor=1e-8 * xs.var())
        assert vec.values.max() <= 0.9

    def test_sample_mode_deterministic_given_seed(self):
        xs = np.random.default_rng(1).standard_normal(20)
        a = posterior_exactly_one_var(
            xs, mode=EstimationMode.POSTERIOR_SAMPLE, rng=np.random.default_rng(4)
        )
        b = posterior_exactly_one_var(
            xs, mode=EstimationMode.POSTERIOR_SAMPLE, rng=np.random.default_rng(4)
        )
        np.testing.assert_array_equal(a.values, b.values)


class TestKernelWithVarianceChange:
    def test_mean_then_variance_scenario(self):
        # (mu, sigma) = (1, 1), then (0, 1), then (0, 0.5): the last change
        # is variance-only, and the kernel should place its largest p_last
        # mode near it.
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            xs = np.concatenate(
                [
                    rng.standard_normal(50) + 1.0,
                    rng.standard_normal(50),
                    rng.standard_normal(50) * 0.5,
                ]
            )
            state = CppState(
                config=CppConfig(
                    model=SingleCpModel(mu0=None, sigma=None, change_prior_f=0.02),
                    variance_change=True,
                ),
                rng=seed,
            )
            for x in xs:
                state.observe(x)
            hits += abs(state.query_p_last().argmax() - 100) <= 15
        assert hits >= 15  # mode near the variance change in most runs

    def test_conservation_holds_with_variance_change(self):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal(40)
        xs[20:] *= 2.5
        state = CppState(
            config=CppConfig(model=SingleCpModel(change_prior_f=0.02), variance_change=True),
            rng=12,
        )
        for x in xs:
            state.observe(x)
            vec, p_hzero = state.query_p_second()
            assert p_hzero + vec.total() == pytest.approx(1.0, abs=1e-6)

    def test_tables_match_posterior_exactly_one_var(self):
        # row j of the kernel's table is the per-segment-variance posterior
        # on the suffix window (j, n], which needs at least 4 points, and
        # last_given_hzero the zero-or-one posterior on the whole window
        config = CppConfig(model=SingleCpModel(), variance_change=True)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            xs = np.concatenate([rng.standard_normal(20), rng.standard_normal(20) * 2.5])
            n = len(xs)
            prefix = PrefixStats(xs)
            floor = kernel._series_floor(*prefix.arrays())
            assert floor == pytest.approx(1e-8 * xs.var(ddof=1), rel=1e-12)
            tables = build_conditional_tables(prefix, config, rng)
            dense = dense_table(tables)
            for j in range(1, n - 3):
                ref = posterior_exactly_one_var(xs[j:], floor=floor, start=j + 1)
                np.testing.assert_allclose(
                    dense[j, j + 1 : n], ref.values, rtol=0, atol=1e-9
                )
            _, ref = posterior_zero_or_one_var(xs, floor=floor)
            np.testing.assert_allclose(tables.last_given_hzero[1:n], ref.values, rtol=0, atol=1e-9)
            assert tables.last_given_hzero[0] == tables.last_given_hzero[n] == 0.0
