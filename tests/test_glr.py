"""Tests for the GLR mean-shift detector, pinned by a grid-search oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdetect.glr import GlrConfig, GlrState, glr_decision


def brute_force_glr(xs, mu0, sigma, nu_min):
    """Double loop over change onsets j and a fine grid of shift sizes nu."""
    xs = np.asarray(xs, dtype=float)
    k = len(xs)
    sigma2 = sigma * sigma
    best = 0.0
    span = max(2.0 * np.abs(xs - mu0).max() + 1.0, 2 * nu_min + 1.0)
    grid = np.concatenate([np.linspace(nu_min, span, 4000), np.linspace(-span, -nu_min, 4000)])
    for j in range(k):
        seg = xs[j:] - mu0
        s, m = seg.sum(), len(seg)
        llr = (grid * s - 0.5 * m * grid**2) / sigma2
        best = max(best, llr.max())
    return best


def feed(xs):
    state = GlrState()
    for x in xs:
        state.observe(float(x))
    return state


class TestGlrDecision:
    def test_data_at_mu0_gives_zero(self):
        state = feed(np.full(20, 3.0))
        assert glr_decision(state, GlrConfig(mu0=3.0, sigma=1.0, nu_min=0.0)) == 0.0

    @given(d=st.floats(-8, 8, allow_nan=False))
    def test_single_point_closed_form(self, d):
        state = feed([d])
        got = glr_decision(state, GlrConfig(mu0=0.0, sigma=1.0, nu_min=0.0))
        assert got == pytest.approx(max(0.0, d * d / 2), abs=1e-9)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            xs = rng.standard_normal(50)
            if trial % 2:
                xs[25:] += 1.0
            state = feed(xs)
            for nu_min in (0.0, 0.5):
                cfg = GlrConfig(mu0=0.0, sigma=1.0, nu_min=nu_min)
                oracle = brute_force_glr(xs, 0.0, 1.0, nu_min)
                assert glr_decision(state, cfg) == pytest.approx(oracle, abs=1e-4)

    def test_nu_min_zero_closed_form(self):
        # With no minimum shift the maximum over nu is (S_j)^2 / (2 sigma^2 m).
        rng = np.random.default_rng(23)
        xs = rng.standard_normal(40) + 0.3
        state = feed(xs)
        sigma = 1.3
        best = 0.0
        for j in range(40):
            seg = xs[j:]
            s, m = seg.sum(), len(seg)
            best = max(best, s * s / (2 * sigma * sigma * m))
        got = glr_decision(state, GlrConfig(mu0=0.0, sigma=sigma, nu_min=0.0))
        assert got == pytest.approx(best, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.floats(-50, 50))
    def test_translation_invariance(self, seed, shift):
        xs = np.random.default_rng(seed).standard_normal(30)
        base = glr_decision(feed(xs), GlrConfig(mu0=0.0, sigma=1.0))
        moved = glr_decision(feed(xs + shift), GlrConfig(mu0=shift, sigma=1.0))
        assert moved == pytest.approx(base, abs=1e-7)

    def test_two_sided_detection(self):
        rng = np.random.default_rng(5)
        up = rng.standard_normal(30)
        up[15:] += 3.0
        cfg = GlrConfig(mu0=0.0, sigma=1.0)
        g_up = glr_decision(feed(up), cfg)
        g_down = glr_decision(feed(-up), cfg)
        assert g_up == pytest.approx(g_down, abs=1e-9)
        assert g_up > 5.0

    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(31)
        for seed in range(100):
            xs = np.random.default_rng(seed).standard_normal(rng.integers(1, 40))
            incremental = GlrState()
            cfg = GlrConfig(mu0=0.0, sigma=1.0)
            for t in range(len(xs)):
                incremental.observe(float(xs[t]))
                batch = feed(xs[: t + 1])
                assert glr_decision(incremental, cfg) == pytest.approx(
                    glr_decision(batch, cfg), abs=1e-9
                )

    def test_empty_state_raises(self):
        with pytest.raises(ValueError):
            glr_decision(GlrState(), GlrConfig())


class TestGlrState:
    def test_observation_count(self):
        state = feed([1.0, 2.0, 3.0])
        assert state.k == 3

    def test_serialization_round_trip(self):
        xs = np.random.default_rng(2).standard_normal(15)
        state = feed(xs)
        clone = GlrState.from_json(state.to_json())
        cfg = GlrConfig(mu0=0.0, sigma=1.0)
        assert clone.k == state.k
        assert glr_decision(clone, cfg) == pytest.approx(glr_decision(state, cfg), abs=1e-12)

    def test_round_trip_is_lossless_at_large_offset(self):
        xs = 1e8 + np.random.default_rng(5).standard_normal(200)
        xs[120:] += 0.7
        state = feed(xs)
        clone = GlrState.from_json(state.to_json())
        assert clone.series == xs.tolist()
        cfg = GlrConfig(mu0=1e8, sigma=1.0)
        assert glr_decision(clone, cfg) == glr_decision(state, cfg)

    @pytest.mark.parametrize(
        "text", ["[]", "{}", '{"series": 3}', '{"series": [1.0, null]}'],
        ids=["list", "no-series", "series-not-list", "series-holds-null"],
    )
    def test_from_json_rejects_a_document_that_is_not_a_snapshot(self, text):
        with pytest.raises(ValueError, match="GLR snapshot"):
            GlrState.from_json(text)

    def test_rejects_non_finite(self):
        state = GlrState()
        with pytest.raises(ValueError):
            state.observe(float("inf"))

    @pytest.mark.parametrize("case", ["scaled-1e160", "600-of-1e152"])
    def test_rejects_observations_whose_squares_overflow(self, case):
        if case == "scaled-1e160":
            xs = np.random.default_rng(0).standard_normal(120)
            xs[60:] += 2.0
            xs *= 1e160
        else:
            xs = np.full(600, 1e152)
        state = GlrState()
        with pytest.raises(ValueError, match="overflow"):
            for x in xs:
                k = state.k
                state.observe(x)
        assert state.k == k == len(state.series)  # state unchanged
        if k:
            assert np.isfinite(glr_decision(state, GlrConfig()))


class TestGlrConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GlrConfig(sigma=0.0)
        with pytest.raises(ValueError):
            GlrConfig(nu_min=-0.1)

    @pytest.mark.parametrize("param", ["mu0", "sigma", "nu_min"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_parameters(self, param, value):
        with pytest.raises(ValueError, match="finite"):
            GlrConfig(**{param: value})
