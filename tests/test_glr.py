"""Tests for the GLR mean-shift detector, pinned by a grid-search oracle."""

import math
import re

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


#: A valid snapshot config, for documents that break one other field
CONFIG = '"config": {"mu0": 0.0, "sigma": 1.0, "nu_min": 0.5}'


def feed(xs, config=GlrConfig()):
    state = GlrState(config)
    for x in xs:
        state.observe(float(x))
    return state


class TestGlrDecision:
    def test_data_at_mu0_gives_zero(self):
        state = feed(np.full(20, 3.0), GlrConfig(mu0=3.0, sigma=1.0, nu_min=0.0))
        assert state.decision_g() == 0.0

    @given(d=st.floats(-8, 8, allow_nan=False))
    def test_single_point_closed_form(self, d):
        state = feed([d], GlrConfig(mu0=0.0, sigma=1.0, nu_min=0.0))
        got = state.decision_g()
        assert got == pytest.approx(max(0.0, d * d / 2), abs=1e-9)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            xs = rng.standard_normal(50)
            if trial % 2:
                xs[25:] += 1.0
            for nu_min in (0.0, 0.5):
                state = feed(xs, GlrConfig(mu0=0.0, sigma=1.0, nu_min=nu_min))
                oracle = brute_force_glr(xs, 0.0, 1.0, nu_min)
                assert state.decision_g() == pytest.approx(oracle, abs=1e-4)

    def test_nu_min_zero_closed_form(self):
        # With no minimum shift the maximum over nu is (S_j)^2 / (2 sigma^2 m).
        rng = np.random.default_rng(23)
        xs = rng.standard_normal(40) + 0.3
        sigma = 1.3
        state = feed(xs, GlrConfig(mu0=0.0, sigma=sigma, nu_min=0.0))
        best = 0.0
        for j in range(40):
            seg = xs[j:]
            s, m = seg.sum(), len(seg)
            best = max(best, s * s / (2 * sigma * sigma * m))
        got = state.decision_g()
        assert got == pytest.approx(best, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.floats(-50, 50))
    def test_translation_invariance(self, seed, shift):
        xs = np.random.default_rng(seed).standard_normal(30)
        base = feed(xs, GlrConfig(mu0=0.0, sigma=1.0)).decision_g()
        moved = feed(xs + shift, GlrConfig(mu0=shift, sigma=1.0)).decision_g()
        assert moved == pytest.approx(base, abs=1e-7)

    def test_two_sided_detection(self):
        rng = np.random.default_rng(5)
        up = rng.standard_normal(30)
        up[15:] += 3.0
        cfg = GlrConfig(mu0=0.0, sigma=1.0)
        g_up = feed(up, cfg).decision_g()
        g_down = feed(-up, cfg).decision_g()
        assert g_up == pytest.approx(g_down, abs=1e-9)
        assert g_up > 5.0

    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(31)
        for seed in range(100):
            xs = np.random.default_rng(seed).standard_normal(rng.integers(1, 40))
            cfg = GlrConfig(mu0=0.0, sigma=1.0)
            incremental = GlrState(cfg)
            for t in range(len(xs)):
                incremental.observe(float(xs[t]))
                batch = feed(xs[: t + 1], cfg)
                assert glr_decision(incremental) == pytest.approx(
                    glr_decision(batch), abs=1e-9
                )

    def test_empty_state_raises(self):
        with pytest.raises(ValueError):
            glr_decision(GlrState(GlrConfig()))


def g_trace(xs, config):
    state = GlrState(config)
    trace = []
    for x in xs:
        state.observe(x)
        trace.append(state.decision_g())
    return np.array(trace)


def shift_stream(seed):
    xs = np.random.default_rng(seed).standard_normal(40)
    xs[20:] += 1.5
    return xs


class TestShiftAndScale:
    """The prefix sums are taken about mu0, so g depends on the data only
    through their deviations from it."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), offset=st.floats(100.0, 1e12),
           sign=st.sampled_from([1.0, -1.0]), mu0=st.sampled_from([0.0, 0.75, -2.5]),
           nu_min=st.sampled_from([0.0, 0.5]))
    def test_location_shift_is_bit_identical(self, seed, offset, sign, mu0, nu_min):
        c = sign * offset
        shifted = shift_stream(seed) + c
        # |x| << |c|, so these differences are exact (Sterbenz)
        back = shifted - c
        shifted_mu0 = mu0 + c
        back_mu0 = shifted_mu0 - c
        a = g_trace(shifted, GlrConfig(mu0=shifted_mu0, sigma=1.0, nu_min=nu_min))
        b = g_trace(back, GlrConfig(mu0=back_mu0, sigma=1.0, nu_min=nu_min))
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), power=st.integers(-300, 300),
           mu0=st.sampled_from([0.0, 0.75, -2.5]), nu_min=st.sampled_from([0.0, 0.5]))
    def test_scale_change_moves_g_by_rounding(self, seed, power, mu0, nu_min):
        k = 2.0**power
        xs = shift_stream(seed)
        a = g_trace(xs * k, GlrConfig(mu0=mu0 * k, sigma=1.3 * k, nu_min=nu_min * k))
        b = g_trace(xs, GlrConfig(mu0=mu0, sigma=1.3, nu_min=nu_min))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


class TestGlrState:
    def test_observation_count(self):
        state = feed([1.0, 2.0, 3.0])
        assert state.k == 3

    def test_serialization_round_trip(self):
        xs = np.random.default_rng(2).standard_normal(15)
        state = feed(xs, GlrConfig(mu0=0.0, sigma=1.0))
        clone = GlrState.from_json(state.to_json())
        assert clone.k == state.k
        assert clone.config == state.config
        assert clone.decision_g() == pytest.approx(state.decision_g(), abs=1e-12)

    def test_round_trip_is_lossless_at_large_offset(self):
        xs = 1e8 + np.random.default_rng(5).standard_normal(200)
        xs[120:] += 0.7
        state = feed(xs, GlrConfig(mu0=1e8, sigma=1.0))
        clone = GlrState.from_json(state.to_json())
        assert clone.series == xs.tolist()
        assert clone.decision_g() == state.decision_g()

    def test_built_whole_equals_streamed(self):
        xs = 1e8 + np.random.default_rng(6).standard_normal(40)
        streamed = feed(xs, GlrConfig(mu0=1e8, sigma=1.0))
        built = GlrState(streamed.config, streamed.series)
        assert built.series == streamed.series
        for got, expected in zip(built.prefix.arrays(), streamed.prefix.arrays()):
            assert got.tobytes() == expected.tobytes()
        assert built.decision_g() == streamed.decision_g()

    @pytest.mark.parametrize(
        "text, match",
        [("[]", "GLR snapshot"), ("{%s}" % CONFIG, "GLR snapshot"),
         ('{%s, "series": 3}' % CONFIG, "GLR snapshot"),
         ('{%s, "series": [1.0, null]}' % CONFIG, "GLR snapshot"),
         ('{"series": [1.0]}', "GLR snapshot"),
         ('{"config": [0.0, 1.0, 0.5], "series": [1.0]}', "GLR snapshot"),
         ('{"config": {"mu0": 0.0, "sigma": 1.0}, "series": [1.0]}', "GLR snapshot"),
         ('{"config": {"mu0": 0.0, "sigma": 1.0, "nu_min": 0.5, "h": 3}, "series": [1.0]}',
          "GLR snapshot"),
         ('{"config": {"mu0": 0.0, "sigma": 0, "nu_min": 0.5}, "series": [1.0]}', "sigma"),
         ('{"config": {"mu0": "1", "sigma": 1.0, "nu_min": 0.5}, "series": [1.0]}',
          "mu0 must be a real number")],
        ids=["list", "no-series", "series-not-list", "series-holds-null", "no-config",
             "config-not-object", "config-key-missing", "config-key-unknown", "sigma-zero",
             "mu0-string"],
    )
    def test_from_json_rejects_a_document_that_is_not_a_snapshot(self, text, match):
        with pytest.raises(ValueError, match=match):
            GlrState.from_json(text)

    def test_from_json_rejects_an_integer_that_overflows_a_float(self):
        with pytest.raises(ValueError, match="series"):
            GlrState.from_json('{%s, "series": [1.0, 1%s]}' % (CONFIG, "0" * 400))

    def test_rejects_non_finite(self):
        state = GlrState(GlrConfig())
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
        state = GlrState(GlrConfig())
        with pytest.raises(ValueError, match="overflow"):
            for x in xs:
                k = state.k
                state.observe(x)
        assert state.k == k == len(state.series)  # state unchanged
        if k:
            assert np.isfinite(state.decision_g())


class TestGlrConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GlrConfig(sigma=0.0)
        with pytest.raises(ValueError):
            GlrConfig(nu_min=-0.1)

    @pytest.mark.parametrize("param", ["mu0", "sigma", "nu_min"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400],
                             ids=["nan", "inf", "int-overflows-float"])
    def test_rejects_non_finite_parameters(self, param, value):
        with pytest.raises(ValueError, match="finite"):
            GlrConfig(**{param: value})

    @pytest.mark.parametrize(
        "param, value",
        [("mu0", "3"), ("mu0", 1 + 2j), ("sigma", True), ("sigma", np.bool_(True)),
         ("nu_min", None)],
        ids=["mu0-string", "mu0-complex", "sigma-bool", "sigma-numpy-bool", "nu_min-none"],
    )
    def test_rejects_a_parameter_that_is_not_a_real_number(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be a real number"):
            GlrConfig(**{param: value})

    @pytest.mark.parametrize("sigma, square", [(1e160, "inf"), (1e-170, "0.0")],
                             ids=["square-overflows", "square-underflows"])
    def test_rejects_sigma_whose_square_is_not_a_positive_float(self, sigma, square):
        with pytest.raises(ValueError, match=re.escape(f"sigma={sigma!r} squares to {square}")):
            GlrConfig(sigma=sigma)

    def test_numpy_parameters_are_stored_as_python_floats(self):
        config = GlrConfig(mu0=np.float32(1.75), sigma=np.int64(2), nu_min=np.float32(0.5))
        assert config == GlrConfig(mu0=1.75, sigma=2.0, nu_min=0.5)
        assert all(type(v) is float for v in (config.mu0, config.sigma, config.nu_min))
