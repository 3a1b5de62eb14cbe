"""Tests for the incremental changepoint-probability kernel.

The kernel's vectorized conditional tables are checked against the scalar
per-window posteriors in tests/oracles.py, and the Jacobi update is
checked against hand-computed substitutions on small hand-set tables.
"""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdetect import kernel
from cpdetect.gaussian_stats import EstimationMode
from cpdetect.kernel import (
    ConditionalTables,
    CppConfig,
    CppState,
    CssCache,
    ExpCssCache,
    PosteriorMatrix,
    SingleCpModel,
    build_conditional_tables,
    jacobi_step,
)
from cpdetect.gaussian_stats import PrefixStats
from oracles import posterior_exactly_one, posterior_zero_or_one

KNOWN = SingleCpModel(mu0=0.0, sigma=1.0)


def run_series(xs, model=KNOWN, mode=EstimationMode.PLUG_IN, seed=0, **cfg_kwargs):
    state = CppState(
        config=CppConfig(model=model, estimation_mode=mode, **cfg_kwargs), rng=seed
    )
    for x in xs:
        state.observe(x)
    return state


class TestObserveBasics:
    def test_first_observation_trivial_state(self):
        state = CppState(config=CppConfig(model=KNOWN))
        state.observe(0.5)
        assert state.query_p_last().total() == 0.0
        vec, p_hzero = state.query_p_second()
        assert vec.total() == 0.0
        assert p_hzero == 1.0
        assert state.decision_g() == 0.0

    def test_rejects_non_finite_observation(self):
        state = CppState(config=CppConfig(model=KNOWN))
        state.observe(1.0)
        with pytest.raises(ValueError):
            state.observe(float("nan"))
        assert state.n == 1  # state unchanged

    @pytest.mark.parametrize("case", ["scaled-1e160", "0-then-1e152"])
    def test_rejects_observations_whose_squares_overflow(self, case):
        if case == "scaled-1e160":
            xs = np.random.default_rng(0).standard_normal(120)
            xs[60:] += 2.0
            xs *= 1e160
        else:
            # the sums are about the first point, so the deviations are 1e152
            xs = np.full(600, 1e152)
            xs[0] = 0.0
        state = CppState(config=CppConfig(model=SingleCpModel()))
        for x in xs:
            n, p_last = state.n, state.p_last.copy()
            try:
                state.observe(x)
            except ValueError:
                break
        else:
            pytest.fail("no observation was rejected")
        assert state.n == n  # state unchanged
        np.testing.assert_array_equal(state.p_last, p_last)
        assert np.isfinite(state.decision_g())

    def test_overflow_message_names_the_deviation(self):
        state = CppState(config=CppConfig(model=SingleCpModel(mu0=1e200, sigma=1.0)))
        with pytest.raises(ValueError, match=r"observation 0.5 lies -1e\+200 from the "
                                             r"reference point 1e\+200"):
            state.observe(0.5)
        assert state.n == 0

    def test_constant_series_history_does_not_depend_on_its_level(self):
        # with an unknown mean the sums are about the first point, so every
        # deviation is 0, and 150 points of 1e152 no longer overflow
        high = run_series(np.full(150, 1e152), model=SingleCpModel())
        unit = run_series(np.ones(150), model=SingleCpModel())
        assert_bits_equal(high.history.packed(), unit.history.packed())
        assert_bits_equal(high.p_second, unit.p_second)

    def test_queries_on_empty_state(self):
        state = CppState(config=CppConfig(model=KNOWN))
        with pytest.raises(ValueError):
            state.query_p_last()
        assert state.decision_g() == 0.0

    def test_history_rows_have_increasing_length(self):
        state = run_series(np.random.default_rng(0).standard_normal(10))
        for k in range(1, 11):
            assert len(state.history.row(k)) == k


class TestConservationAndBounds:
    def test_invariants_every_step_of_100_random_runs(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xs = rng.standard_normal(30)
            if seed % 3 == 0:
                xs[15:] += rng.uniform(-3, 3)
            state = CppState(config=CppConfig(model=KNOWN), rng=seed)
            for x in xs:
                state.observe(x)
                vec, p_hzero = state.query_p_second()
                assert p_hzero + vec.total() == pytest.approx(1.0, abs=1e-6)
                g = state.decision_g()
                assert 0.0 <= g <= 1.0 + 1e-6
                assert state.query_p_last().values.min() >= 0.0

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(dict(model=KNOWN), id="known-sigma"),
            pytest.param(dict(model=SingleCpModel()), id="estimated-sigma"),
            pytest.param(dict(model=SingleCpModel(mu0=0.0)), id="mu0-known-sigma-estimated"),
            pytest.param(dict(model=SingleCpModel(sigma=1.0)), id="sigma-known-mu-estimated"),
            pytest.param(dict(model=KNOWN, estimation_mode=EstimationMode.POSTERIOR_SAMPLE),
                         id="sample"),
            pytest.param(dict(model=SingleCpModel(), variance_change=True),
                         id="variance_change"),
        ],
    )
    def test_every_table_path_conserves_probability_over_200_points(self, cfg):
        xs = np.random.default_rng(0).standard_normal(200)
        state = CppState(config=CppConfig(**cfg), rng=0)
        for x in xs:
            state.observe(x)
            assert abs(state.p_hzero + state.p_second.sum() - 1.0) <= 1e-9
            assert 0.0 <= state.decision_g() <= 1.0 + 1e-9


def dense_tables(last_given_hzero, last_given_second, memo):
    """Hand-set tables in the dense path's form: post and row_scale ones."""
    ones = np.ones(len(last_given_hzero))
    return ConditionalTables(
        n=len(ones) - 1, last_given_hzero=last_given_hzero, weights=last_given_second,
        post=ones, row_scale=ones, memo=memo,
        exact=np.zeros(0, dtype=int), exact_rows=np.zeros((0, len(ones))),
    )


class TestJacobiStep:
    def test_zero_second_mass_collapses_to_hzero_posterior(self):
        xs = np.random.default_rng(1).standard_normal(12)
        prefix = PrefixStats(xs)
        config = CppConfig(model=KNOWN)
        tables = build_conditional_tables(prefix, config, np.random.default_rng(0), 1e-8)
        p_last = np.zeros(13)
        p_second = np.zeros(13)
        new_last, new_second, _ = jacobi_step(p_last, p_second, tables)
        np.testing.assert_array_equal(new_last, tables.last_given_hzero)
        assert new_second.sum() == 0.0

    def test_hand_set_indicator_tables(self):
        # n=3 window with hand-set conditionals; verified by substituting
        # into the two coupled equations by hand.
        n = 3
        c0 = np.array([0.0, 0.2, 0.3, 0.0])
        lgs = np.zeros((n + 1, n + 1))
        lgs[1, 2] = 1.0  # last at 2, given second-to-last at 1
        memo = np.zeros((n, n))
        memo[2, 1] = 1.0  # at step 2, the only admissible changepoint was 1
        tables = dense_tables(c0, lgs, memo)
        p_last = np.array([0.0, 0.2, 0.4, 0.1])
        p_second = np.array([0.0, 0.5, 0.0, 0.0])
        new_last, new_second, new_hzero = jacobi_step(p_last, p_second, tables)
        # new_last = c0 * (1 - 0.5) + column contribution from j=1
        np.testing.assert_allclose(new_last, [0.0, 0.1, 0.65, 0.0], atol=1e-12)
        # new_second[1] = memo[2, 1] * p_last[2]
        np.testing.assert_allclose(new_second, [0.0, 0.4, 0.0, 0.0], atol=1e-12)
        assert new_hzero == pytest.approx(0.6)

    def test_dimension_mismatch_raises(self):
        tables = dense_tables(np.zeros(4), np.zeros((4, 4)), np.zeros((0, 0)))
        with pytest.raises(ValueError):
            jacobi_step(np.zeros(3), np.zeros(4), tables)

    def test_second_iteration_residual_not_larger(self):
        # Warm-started from the previous step's solution, a second sweep
        # should move the state no more than the first did.
        worse = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xs = rng.standard_normal(25)
            xs[12:] += rng.uniform(-2, 2)
            state = run_series(xs[:-1], seed=seed)
            state.prefix.append(float(xs[-1]))
            state.series.append(float(xs[-1]))
            tables = build_conditional_tables(
                state.prefix, state.config, state.rng, state._floor(),
                memo=state.history.matrix(len(xs) - 1),
            )
            pl = np.append(state.p_last, 0.0)
            ps = np.append(state.p_second, 0.0)
            pl1, ps1, _ = jacobi_step(pl, ps, tables)
            pl2, ps2, _ = jacobi_step(pl1, ps1, tables)
            r1 = np.abs(pl1 - pl).sum() + np.abs(ps1 - ps).sum()
            r2 = np.abs(pl2 - pl1).sum() + np.abs(ps2 - ps1).sum()
            if r2 > r1 + 1e-9:
                worse += 1
        assert worse <= 5


ORACLE_MODELS = [
    (SingleCpModel(mu0=0.0, sigma=1.0), "known-known"),
    (SingleCpModel(mu0=0.0, sigma=None), "known-est"),
    (SingleCpModel(mu0=None, sigma=1.0), "est-known"),
    (SingleCpModel(mu0=None, sigma=None), "est-est"),
    # a known mu0 that is not 0, so the prefix sums must be taken about it
    (SingleCpModel(mu0=0.75, sigma=1.0), "known0.75-known"),
]
#: (series length, id suffix)
ORACLE_WINDOWS = [(18, ""), (200, "-n200")]


class TestConditionalTablesAgainstScalarReference:
    @pytest.mark.parametrize(
        "model, n",
        [
            pytest.param(model, n, id=model_id + suffix)
            for n, suffix in ORACLE_WINDOWS
            for model, model_id in ORACLE_MODELS
        ],
    )
    def test_suffix_posteriors_match_single_change(self, model, n):
        rng = np.random.default_rng(21)
        xs = rng.standard_normal(n)
        xs[n // 2 :] += 1.5
        # the tables read sums about mu0 when it is known
        prefix = PrefixStats(xs if model.mu0 is None else xs - model.mu0)
        config = CppConfig(model=model)
        tables = build_conditional_tables(prefix, config, np.random.default_rng(0), 1e-8)
        # rows of last_given_second are exactly-one posteriors on suffixes
        for j in range(1, n - 1):
            suffix_model = SingleCpModel(
                mu0=None, sigma=model.sigma, change_prior_f=model.change_prior_f
            )
            ref = posterior_exactly_one(xs[j:], suffix_model, start=j + 1)
            np.testing.assert_allclose(
                tables.last_given_second[j, j + 1 : n], ref.values, atol=1e-9
            )
        # the H-zero branch is the zero-or-one posterior on the whole window
        p_none, vec = posterior_zero_or_one(xs, model)
        assert 1.0 - tables.last_given_hzero.sum() == pytest.approx(p_none, abs=1e-9)
        np.testing.assert_allclose(tables.last_given_hzero[1:n], vec.values, atol=1e-9)
        assert tables.last_given_hzero[0] == 0 and tables.last_given_hzero[n] == 0


class TestMemoization:
    def test_memo_rows_bit_identical_to_history(self):
        xs = np.random.default_rng(2).standard_normal(20)
        state = run_series(xs)
        matrix = state.history.matrix(state.n)
        for k in range(1, state.n + 1):
            np.testing.assert_array_equal(matrix[k, 1 : k + 1], state.history.row(k))

    def test_posterior_matrix_rejects_out_of_order_rows(self):
        pm = PosteriorMatrix()
        pm.append(np.zeros(2))
        with pytest.raises(ValueError):
            pm.append(np.zeros(4))  # skips step 2
        with pytest.raises(IndexError):
            pm.row(5)

    def test_matrix_view_is_read_only(self):
        state = run_series(np.random.default_rng(3).standard_normal(8))
        before = state.history.row(5).copy()
        view = state.history.matrix(5)
        with pytest.raises(ValueError, match="read-only"):
            view[5, 1] = 0.9
        np.testing.assert_array_equal(state.history.row(5), before)
        state.observe(0.5)  # appending still writes the store
        assert len(state.history) == 9


def assert_same_state(a, b):
    """a and b hold the same state, bit for bit."""
    assert a.series == b.series
    np.testing.assert_array_equal(a.p_last, b.p_last)
    np.testing.assert_array_equal(a.p_second, b.p_second)
    assert a.p_hzero == b.p_hzero
    np.testing.assert_array_equal(a.history.matrix(a.n), b.history.matrix(b.n))
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.config == b.config


class TestIncrementalEqualsBatch:
    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(dict(mode=EstimationMode.PLUG_IN), id="EstimationMode.PLUG_IN"),
            pytest.param(
                dict(mode=EstimationMode.POSTERIOR_SAMPLE), id="EstimationMode.POSTERIOR_SAMPLE"
            ),
            pytest.param(dict(model=SingleCpModel()), id="fused"),
            pytest.param(dict(model=SingleCpModel(), variance_change=True), id="variance_change"),
            pytest.param(dict(model=SingleCpModel(), variance_change=True,
                              mode=EstimationMode.POSTERIOR_SAMPLE), id="variance_change-sample"),
            pytest.param(dict(model=SingleCpModel(mu0=3.0, sigma=1.0)), id="mu0=3"),
            pytest.param(dict(model=SingleCpModel(mu0=0.0, sigma=0.5)), id="sigma=0.5"),
            pytest.param(dict(model=SingleCpModel(mu0=0.0)), id="mu0-known-sigma-estimated"),
            pytest.param(dict(model=SingleCpModel(sigma=1.0)), id="sigma-known-mu-estimated"),
            pytest.param(dict(model=SingleCpModel(), mode=EstimationMode.POSTERIOR_SAMPLE),
                         id="estimated-sample"),
            pytest.param(dict(jacobi_iterations=3), id="jacobi_iterations=3"),
        ],
    )
    def test_snapshot_resume_matches_uninterrupted_run(self, case):
        xs = np.random.default_rng(3).standard_normal(40)
        xs[20:] += 1.0
        full = run_series(xs, seed=9, **case)

        half = run_series(xs[:20], seed=9, **case)
        resumed = CppState.from_json(half.to_json())
        assert_same_state(resumed, half)
        for x in xs[20:]:
            resumed.observe(x)
        assert_same_state(resumed, full)

    def test_plug_in_runs_are_reproducible(self):
        xs = np.random.default_rng(4).standard_normal(30)
        a = run_series(xs, seed=0)
        b = run_series(xs, seed=12345)  # plug-in mode never consumes the rng
        np.testing.assert_array_equal(a.p_last, b.p_last)


class TestDetectionBehavior:
    def test_sustained_3_sigma_jump_raises_g(self):
        high = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            xs = np.concatenate(
                [rng.standard_normal(30), rng.standard_normal(30) + 3.0]
            )
            state = run_series(xs, seed=seed)
            high += state.decision_g() > 0.95
        assert high >= 38  # >= 95% of runs

    def test_null_series_keeps_change_mass_low(self):
        # A flat series should leave most posterior mass on "no change";
        # the change prior must be small relative to the window length for
        # the prior alone not to dominate (200 * 0.001 << 1).
        model = SingleCpModel(mu0=0.0, sigma=1.0, change_prior_f=0.001)
        totals = []
        for seed in range(20):
            state = run_series(
                np.zeros(200), model=model,
                mode=EstimationMode.POSTERIOR_SAMPLE, seed=seed,
            )
            totals.append(state.query_p_last().total())
        assert np.mean(totals) < 0.2

    def test_agrees_with_zero_or_one_posterior_on_single_change_windows(self):
        agree = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xs = np.concatenate([rng.standard_normal(15), rng.standard_normal(15) + 6.0])
            state = run_series(xs, seed=seed)
            _, ref = posterior_zero_or_one(xs, KNOWN)
            agree += state.query_p_last().argmax() == ref.argmax()
        assert agree >= 95

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
    def test_location_shift_keeps_the_mode(self, offset):
        xs = np.random.default_rng(0).standard_normal(120)
        xs[60:] += 3.0
        state = run_series(xs + offset, model=SingleCpModel())
        assert state.query_p_last().argmax() == 60

    # Max g over the 20 seeds, n = 2..6: 1.0, 0.948, 0.508, 0.451, 0.651 with
    # both estimated, and 0.0, 1.0, 0.940, 0.920, 0.684 with mu0 known.  Both
    # estimated at n = 4 is left out: 0.508 lies 0.008 over the bound, so a
    # pin there would flip on a rounding-level change.
    @pytest.mark.xfail(strict=True, reason=(
        "a plug-in variance fitted to the H0's one- and two-point segments "
        "rewards a split, so an estimated sigma alarms in the first points"))
    @pytest.mark.parametrize("mu0, n", [(None, 2), (None, 3), (0.0, 3), (0.0, 4)],
                             ids=["both-estimated-n2", "both-estimated-n3", "mu0-known-n3",
                                  "mu0-known-n4"])
    def test_second_point_does_not_claim_a_change(self, mu0, n):
        gs = [run_series(np.random.default_rng(seed).standard_normal(n),
                         model=SingleCpModel(mu0=mu0)).decision_g() for seed in range(20)]
        assert max(gs) < 0.5

    def test_second_changepoint_mass_after_two_strong_jumps(self):
        rng = np.random.default_rng(6)
        xs = np.concatenate(
            [rng.standard_normal(20), rng.standard_normal(20) + 5.0, rng.standard_normal(20) + 10.0]
        )
        state = run_series(xs, seed=6)
        vec, p_hzero = state.query_p_second()
        assert vec.total() > 0.99
        assert p_hzero < 0.01


#: (mu0, sigma) of the models the shift and scale properties run on
SHIFT_MODELS = [(None, None), (None, 1.0), (-0.5, None), (-0.5, 1.0)]


class TestShiftAndScale:
    """The prefix sums are taken about mu0 or the first point, so results
    depend on the data only through their deviations from it."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), offset=st.floats(100.0, 1e12),
           sign=st.sampled_from([1.0, -1.0]), model=st.sampled_from(SHIFT_MODELS))
    def test_location_shift_is_bit_identical(self, seed, offset, sign, model):
        mu0, sigma = model
        c = sign * offset
        shifted = two_shift_stream(40, seed) + c
        # |x| << |c|, so these differences are exact (Sterbenz)
        back = shifted - c
        shifted_mu0 = None if mu0 is None else mu0 + c
        back_mu0 = None if mu0 is None else shifted_mu0 - c
        a = run_series(shifted, model=SingleCpModel(mu0=shifted_mu0, sigma=sigma))
        b = run_series(back, model=SingleCpModel(mu0=back_mu0, sigma=sigma))
        assert_bits_equal(a.history.packed(), b.history.packed())
        assert_bits_equal(a.p_second, b.p_second)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), power=st.integers(-300, 300),
           model=st.sampled_from(SHIFT_MODELS))
    def test_scale_change_moves_results_by_rounding(self, seed, power, model):
        mu0, sigma = model
        k = 2.0**power
        xs = two_shift_stream(40, seed)
        scaled = SingleCpModel(mu0=None if mu0 is None else mu0 * k,
                               sigma=None if sigma is None else sigma * k)
        a = run_series(xs * k, model=scaled)
        b = run_series(xs, model=SingleCpModel(mu0=mu0, sigma=sigma))
        np.testing.assert_allclose(a.history.packed(), b.history.packed(), rtol=0, atol=1e-11)
        np.testing.assert_allclose(a.p_second, b.p_second, rtol=0, atol=1e-11)


class TestSerialization:
    def test_round_trip_preserves_state(self):
        xs = np.random.default_rng(9).standard_normal(25)
        state = run_series(xs, mode=EstimationMode.POSTERIOR_SAMPLE, seed=3)
        clone = CppState.from_json(state.to_json())
        assert clone.series == state.series
        np.testing.assert_array_equal(clone.p_last, state.p_last)
        np.testing.assert_array_equal(clone.p_second, state.p_second)
        assert clone.p_hzero == state.p_hzero
        assert clone.rng.bit_generator.state == state.rng.bit_generator.state
        assert clone.config == state.config

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CppConfig(model=KNOWN, jacobi_iterations=0)

    @pytest.mark.parametrize("case", ["list-format", "format-2", "truncated-history",
                                      "short-p_second", "jacobi-2.5", "jacobi-string",
                                      "json-list", "format-2-only", "no-config",
                                      "numeric-series", "empty-rng_state"])
    def test_from_json_rejects_malformed_snapshots(self, case):
        state = run_series(np.random.default_rng(10).standard_normal(12))
        doc = json.loads(state.to_json())
        if case == "list-format":
            del doc["format"]
            doc["series"] = state.series
            doc["posterior_rows"] = [state.history.row(k).tolist() for k in range(1, 13)]
            doc["p_last"] = state.p_last[1:].tolist()
            doc["p_second"] = state.p_second[1:].tolist()
            match = "format None"
        elif case == "format-2":  # the layout that also stored p_last and p_hzero
            doc.update(format=2, p_last=kernel._pack(state.p_last[1:]), p_hzero=state.p_hzero)
            match = "format 2"
        elif case == "truncated-history":
            doc["posterior_rows"] = doc["posterior_rows"][:-12]
            match = "posterior_rows"
        elif case.startswith("jacobi"):
            doc["config"]["jacobi_iterations"] = 2.5 if case == "jacobi-2.5" else "3"
            match = "jacobi_iterations"
        elif case == "json-list":
            doc, match = [], "JSON list"
        elif case == "format-2-only":
            doc, match = {"format": 2}, "format 2"
        elif case == "no-config":
            del doc["config"]
            match = "no 'config'"
        elif case == "numeric-series":
            doc["series"] = 5
            match = "'series' is int, not str"
        elif case == "empty-rng_state":
            doc["rng_state"] = {}
            match = "rng_state"
        else:
            doc["p_second"] = kernel._pack(state.p_second[2:])
            match = "p_second"
        with pytest.raises(ValueError, match=match):
            CppState.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name, index, value", [
        ("p_second", 2, -0.5), ("posterior_rows", 7, math.inf), ("series", 0, math.nan),
    ], ids=["p_second-negative", "history-inf", "series-nan"])
    def test_from_json_rejects_corrupt_values(self, name, index, value):
        doc = json.loads(run_series(np.random.default_rng(10).standard_normal(12)).to_json())
        values = kernel._unpack(doc, name)
        values[index] = value
        doc[name] = kernel._pack(values)
        with pytest.raises(ValueError, match="finite" if name == "series" else name):
            CppState.from_json(json.dumps(doc))

    def test_snapshot_stores_neither_p_last_nor_p_hzero(self):
        state = run_series(two_shift_stream(30, 1))
        doc = json.loads(state.to_json())
        assert doc["format"] == 3 and "p_last" not in doc and "p_hzero" not in doc

    def test_p_last_is_read_only(self):
        state = run_series(two_shift_stream(30, 1))
        before = state.history.row(30).copy()
        with pytest.raises(ValueError, match="read-only"):
            state.p_last[5] = 0.9
        with pytest.raises(AttributeError):
            state.p_last = np.zeros(31)
        np.testing.assert_array_equal(state.history.row(30), before)

    @pytest.mark.parametrize("make_rng", [int, np.random.SeedSequence, np.random.PCG64,
                                          np.random.default_rng],
                             ids=["int", "SeedSequence", "PCG64", "Generator"])
    def test_rng_accepts_what_default_rng_takes(self, make_rng):
        # each of these, given 7, seeds the generator that the int 7 does
        xs = two_shift_stream(30, 2)
        half = CppState(CppConfig(model=KNOWN, estimation_mode=EstimationMode.POSTERIOR_SAMPLE),
                        rng=make_rng(7))
        for x in xs[:15]:
            half.observe(x)
        resumed = CppState.from_json(half.to_json())
        for x in xs[15:]:
            resumed.observe(x)
        assert_same_state(resumed, run_series(xs, mode=EstimationMode.POSTERIOR_SAMPLE, seed=7))

    @pytest.mark.parametrize(
        "make_rng", [np.random.MT19937, lambda seed: np.random.Generator(np.random.MT19937(seed))],
        ids=["MT19937", "Generator-MT19937"],
    )
    def test_rng_rejects_a_generator_that_a_snapshot_cannot_restore(self, make_rng):
        with pytest.raises(ValueError, match="MT19937"):
            CppState(CppConfig(model=KNOWN), rng=make_rng(7))

    def test_snapshot_is_packed_binary(self):
        # base64 float64 costs 32/3 bytes per history entry; JSON text about 23
        n = 600
        state = run_series(np.random.default_rng(11).standard_normal(n))
        assert len(state.to_json().encode()) <= 11 * n * (n + 1) // 2 + 64 * 1024


class TestConfigRejection:
    @pytest.mark.parametrize(
        "model", [SingleCpModel(mu0=0.0), SingleCpModel(sigma=1.0), KNOWN],
        ids=["mu0", "sigma", "both"],
    )
    def test_variance_change_rejects_known_parameters(self, model):
        with pytest.raises(ValueError, match="variance_change"):
            CppConfig(model=model, variance_change=True)

    @pytest.mark.parametrize(
        "param, value",
        [("mu0", math.nan), ("mu0", math.inf), ("sigma", math.nan), ("sigma", math.inf),
         ("sigma", 1e160), ("sigma", 1e-170), ("sigma", 10**400)],
        ids=["mu0-nan", "mu0-inf", "sigma-nan", "sigma-inf", "sigma-square-inf",
             "sigma-square-0", "sigma-int-overflows-float"],
    )
    def test_model_rejects_non_finite_parameters(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be"):
            SingleCpModel(**{param: value})

    @pytest.mark.parametrize(
        "param, value",
        [("mu0", "3"), ("mu0", 1 + 2j), ("sigma", True), ("sigma", np.bool_(True)),
         ("change_prior_f", None), ("change_prior_f", "0.01")],
        ids=["mu0-string", "mu0-complex", "sigma-bool", "sigma-numpy-bool", "f-none",
             "f-string"],
    )
    def test_model_rejects_a_parameter_that_is_not_a_real_number(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be a real number"):
            SingleCpModel(**{param: value})

    def test_float32_parameters_act_as_the_same_python_floats(self):
        # under numpy 2's promotion rules x - np.float32(mu0) is float32, which
        # would round every prefix sum; a snapshot must not truncate them either
        xs = two_shift_stream(50, 4) + 1.75
        values = {"mu0": np.float32(1.75), "sigma": np.float32(0.5),
                  "change_prior_f": np.float32(0.02)}
        as32 = run_series(xs, model=SingleCpModel(**values))
        as_float = run_series(xs, model=SingleCpModel(**{k: float(v) for k, v in values.items()}))
        assert all(type(v) is float for v in dataclasses.astuple(as32.config.model))
        assert_same_state(as32, as_float)
        assert_same_state(CppState.from_json(as32.to_json()), as_float)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", np.int64(-1)],
                             ids=["1.5", "2.0", "bool", "string", "numpy-negative"])
    def test_rejects_a_jacobi_iterations_that_is_not_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="jacobi_iterations"):
            CppConfig(model=KNOWN, jacobi_iterations=value)

    @pytest.mark.parametrize("value", ["sample", "plugin", None],
                             ids=["sample", "plugin", "none"])
    def test_rejects_an_estimation_mode_that_is_not_an_estimation_mode(self, value):
        with pytest.raises(ValueError, match="estimation_mode"):
            CppConfig(model=KNOWN, estimation_mode=value)

    @pytest.mark.parametrize("value", ["no", 1, 0, np.bool_(True), None],
                             ids=["string", "one", "zero", "numpy-bool", "none"])
    def test_rejects_a_variance_change_that_is_not_a_bool(self, value):
        with pytest.raises(ValueError, match="variance_change"):
            CppConfig(variance_change=value)

    def test_accepts_a_numpy_integer_jacobi_iterations(self):
        xs = two_shift_stream(12, 2)
        state = run_series(xs, jacobi_iterations=np.int64(2))
        assert type(state.config.jacobi_iterations) is int
        assert_same_state(CppState.from_json(state.to_json()), state)
        np.testing.assert_array_equal(state.p_last, run_series(xs, jacobi_iterations=2).p_last)

    def test_model_accepts_a_sigma_whose_square_is_finite(self):
        state = run_series([0.3, -1.2, 0.8, 2.0], model=SingleCpModel(mu0=0.0, sigma=1e154))
        assert math.isfinite(state.decision_g())


def run_dense(xs, monkeypatch, **kwargs):
    """run_series with every config sent through the dense table build."""
    with monkeypatch.context() as m:
        m.setattr(kernel, "_table_path", lambda config: "dense")
        return run_series(xs, **kwargs)


def assert_states_close(a, b, atol):
    assert np.isfinite(a.p_last).all() and np.isfinite(a.p_second).all()
    np.testing.assert_allclose(a.p_last, b.p_last, rtol=0, atol=atol)
    np.testing.assert_allclose(a.p_second, b.p_second, rtol=0, atol=atol)
    assert a.p_hzero == pytest.approx(b.p_hzero, rel=0, abs=atol)


def reference_row(xs, j, sigma):
    """Row j of last_given_second from the raw points of the window (j, n].

    The sums run over the window's deviations from its own mean, forwards
    for the pre-change segments and backwards for the post-change ones, so
    the reference shares no prefix sums with the kernel.
    """
    d = np.asarray(xs[j:], dtype=float)
    d = d - d.mean()

    def css(seg):  # css of seg[:k] for k = 1 .. len(seg) - 1
        k = np.arange(1, len(seg))
        s = np.cumsum(seg)[:-1]
        return np.maximum(np.cumsum(seg * seg)[:-1] - s * s / k, 0.0)

    logw = -(css(d) + css(d[::-1])[::-1]) / (2 * sigma * sigma)
    p = np.exp(logw - logw.max())
    row = np.zeros(len(xs) + 1)
    row[j + 1 : len(xs)] = p / p.sum()
    return row


def css_columns(xs):
    """css(j, i) for 0 <= j < i <= n, one column at a time, zero elsewhere."""
    S, Q = PrefixStats(xs).arrays()
    n = len(xs)
    out = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        m = np.arange(i, 0, -1, dtype=float)
        s = S[i] - S[:i]
        out[:i, i] = np.maximum((Q[i] - Q[:i]) - s * s / m, 0.0)
    return out


class TestCssCache:
    def test_block_fill_equals_column_loop(self):
        xs = np.random.default_rng(20).standard_normal(150)
        expected = css_columns(xs)
        S, Q = PrefixStats(xs).arrays()
        whole, stepwise = CssCache(), CssCache()
        for n in range(1, 151):
            got = stepwise.extend(S[: n + 1], Q[: n + 1])
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(whole.extend(S, Q), expected)
        np.testing.assert_array_equal(
            ExpCssCache(0.7).extend(S, Q), np.triu(np.exp(-expected / (2.0 * 0.7 * 0.7)), 1)
        )


class TestFactoredTables:
    def test_config_selects_the_path(self):
        def path(**cfg):
            return kernel._table_path(CppConfig(**cfg))

        assert path(model=KNOWN) == "factored"
        assert path(model=SingleCpModel(sigma=1.0)) == "factored"
        assert path(model=SingleCpModel(mu0=0.0)) == "fused"
        assert path(model=KNOWN, estimation_mode=EstimationMode.POSTERIOR_SAMPLE) == "dense"
        assert path(variance_change=True) == "dense"

    def test_matches_dense_on_criterion_3_seeds(self, monkeypatch):
        model = SingleCpModel(mu0=-0.5, sigma=1.0, change_prior_f=0.02)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xs = np.concatenate(
                [rng.standard_normal(50) - 0.5, rng.standard_normal(50) + 0.5,
                 rng.standard_normal(50)]
            )
            factored = run_series(xs, model=model, seed=seed)
            dense = run_dense(xs, monkeypatch, model=model, seed=seed)
            assert_states_close(factored, dense, atol=1e-12)

    @pytest.mark.parametrize("case", ["sigma-0.1", "step-50-sigma", "pulse-50-sigma"])
    def test_matches_dense_where_rows_underflow(self, monkeypatch, case):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal(90)
        model = KNOWN
        if case == "sigma-0.1":
            model = SingleCpModel(mu0=0.0, sigma=0.1)
        elif case == "step-50-sigma":
            xs[45:] += 50.0
        else:
            xs[30:60] += 50.0
        factored = run_series(xs, model=model)
        dense = run_dense(xs, monkeypatch, model=model)
        assert_states_close(factored, dense, atol=1e-9)
        if case != "step-50-sigma":
            tables = build_conditional_tables(
                factored.prefix, factored.config, factored.rng, factored._floor()
            )
            assert tables.exact.size > 0  # the log-space rows were exercised

    def test_long_series_rows_and_update_match_reference(self):
        # On 2,500 N(0, 1) points with sigma = 1 the normaliser of every row
        # whose window exceeds about 1,300 points underflows.
        n = 2500
        xs = np.random.default_rng(12).standard_normal(n)
        tables = build_conditional_tables(
            PrefixStats(xs), CppConfig(model=KNOWN), np.random.default_rng(0), 1e-8
        )
        assert 0.3 * n < tables.exact.size < 0.7 * n
        p_second = np.random.default_rng(13).dirichlet(np.ones(n + 1)) * 0.5
        p_second[[0, n - 1, n]] = 0.0
        expected = np.zeros(n + 1)
        dense = tables.last_given_second
        for j in range(1, n - 1):
            ref = reference_row(xs, j, 1.0)
            got = dense[j]
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)
            expected += p_second[j] * ref
        new_last, _, _ = jacobi_step(np.zeros(n + 1), p_second, tables)
        p_hzero = 1.0 - p_second.sum()
        np.testing.assert_allclose(
            new_last, np.clip(tables.last_given_hzero * p_hzero + expected, 0, 1),
            rtol=0, atol=1e-9,
        )

    def test_snapshot_resume_is_bit_identical(self):
        xs = np.random.default_rng(14).standard_normal(60)
        xs[25:] += 1.5
        full = run_series(xs)
        resumed = CppState.from_json(run_series(xs[:30]).to_json())
        for x in xs[30:]:
            resumed.observe(x)
        np.testing.assert_array_equal(resumed.p_last, full.p_last)
        np.testing.assert_array_equal(resumed.p_second, full.p_second)
        assert resumed.p_hzero == full.p_hzero
        np.testing.assert_array_equal(resumed.history.matrix(60), full.history.matrix(60))


ESTIMATED = SingleCpModel(change_prior_f=0.02)


def floored_rows(xs, floor):
    """Rows j whose variance floor binds at the last step, from raw segments:
    min over splits i of (css(j, i) + css(i, n)) / max(n - j - 2, 1) < floor."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)

    def css(seg):
        return float(((seg - seg.mean()) ** 2).sum())

    rows = []
    for j in range(1, n - 1):
        t = min(css(xs[j:i]) + css(xs[i:]) for i in range(j + 1, n))
        if t / max(n - j - 2, 1) < floor:
            rows.append(j)
    return rows


def floor_binding_series():
    """Rounded points with constant runs, where the variance floor binds."""
    rng = np.random.default_rng(16)
    xs = np.round(rng.standard_normal(90), 1)
    xs[30:45] = 0.3
    xs[45:] += 2.0
    xs[-12:] = xs[-13]
    return xs


class TestFusedTables:
    def test_estimated_sigma_plug_in_takes_the_fused_path(self):
        for model in (SingleCpModel(), SingleCpModel(mu0=0.0), ESTIMATED):
            assert kernel._table_path(CppConfig(model=model)) == "fused"

    def test_matches_dense_on_criterion_3_seeds(self, monkeypatch):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xs = np.concatenate(
                [rng.standard_normal(50) - 0.5, rng.standard_normal(50) + 0.5,
                 rng.standard_normal(50)]
            )
            fused = run_series(xs, model=ESTIMATED, seed=seed)
            dense = run_dense(xs, monkeypatch, model=ESTIMATED, seed=seed)
            assert_states_close(fused, dense, atol=1e-12)

    def test_matches_dense_where_the_floor_binds(self, monkeypatch):
        xs = floor_binding_series()
        fused = run_series(xs, model=ESTIMATED)
        dense = run_dense(xs, monkeypatch, model=ESTIMATED)
        assert_states_close(fused, dense, atol=1e-9)
        assert len(floored_rows(xs, fused._floor())) >= 10

    def test_matches_dense_on_shifted_and_scaled_data(self, monkeypatch):
        rng = np.random.default_rng(17)
        xs = rng.standard_normal(100)
        xs[60:] += 1.5
        xs = 1e4 + 1e-3 * xs
        fused = run_series(xs, model=ESTIMATED)
        dense = run_dense(xs, monkeypatch, model=ESTIMATED)
        assert_states_close(fused, dense, atol=1e-9)

    def test_matches_dense_with_three_sweeps(self, monkeypatch):
        # p_second[n-2] stays 0 for two sweeps, so only a third one reads row n-2
        xs = np.random.default_rng(20).standard_normal(60)
        xs[30:] += 1.5
        fused = run_series(xs, model=ESTIMATED, jacobi_iterations=3)
        dense = run_dense(xs, monkeypatch, model=ESTIMATED, jacobi_iterations=3)
        assert_states_close(fused, dense, atol=1e-12)

    def test_snapshot_resume_is_bit_identical(self):
        xs = np.random.default_rng(18).standard_normal(60)
        xs[25:] += 1.5
        full = run_series(xs, model=ESTIMATED)
        resumed = CppState.from_json(run_series(xs[:30], model=ESTIMATED).to_json())
        for x in xs[30:]:
            resumed.observe(x)
        np.testing.assert_array_equal(resumed.p_last, full.p_last)
        np.testing.assert_array_equal(resumed.p_second, full.p_second)
        assert resumed.p_hzero == full.p_hzero
        np.testing.assert_array_equal(resumed.history.matrix(60), full.history.matrix(60))


class TestFusedBlockHeight:
    """The fused tables do not depend on the rows per block, so the mask of
    each block's diagonal square holds at block edges, in the last, partial
    block and on floored rows inside a block.  With one row per block nothing
    is masked.  The row sums add zero-padded spans of different lengths, so
    the tables agree to rounding, not bit for bit."""

    @pytest.mark.parametrize("case", ["floor-binding", "two-shift"])
    def test_tables_do_not_depend_on_block_height(self, monkeypatch, case):
        if case == "floor-binding":
            xs = floor_binding_series()
        else:
            rng = np.random.default_rng(24)
            xs = np.concatenate(
                [rng.standard_normal(60), rng.standard_normal(50) + 1.5,
                 rng.standard_normal(40) - 1.0]
            )
        state = CppState(CppConfig(model=ESTIMATED))
        heights = (1, 5, 63, 64)
        caches = {rows: CssCache() for rows in heights}
        p_second = np.random.default_rng(25).dirichlet(np.ones(len(xs) + 1))
        for x in xs:
            state.observe(x)
            n, tables = state.n, {}
            for rows in heights:
                monkeypatch.setattr(kernel, "_FUSED_BLOCK_ROWS", rows)
                tables[rows] = build_conditional_tables(
                    state.prefix, state.config, state.rng, state._floor(), cache=caches[rows]
                )
            ref = tables[1]
            for rows in heights[1:]:
                np.testing.assert_allclose(
                    tables[rows].last_given_second, ref.last_given_second, rtol=1e-13, atol=0
                )
                np.testing.assert_allclose(
                    tables[rows].last_from_second(p_second[: n + 1]),
                    ref.last_from_second(p_second[: n + 1]), rtol=1e-13, atol=0,
                )


class TestTableViews:
    """The dense ``last_given_second`` and the product ``last_from_second``
    agree on every path."""

    @pytest.mark.parametrize(
        "case", ["factored-exact-rows", "fused-floored-rows", "dense-sample", "dense-variance"]
    )
    def test_dense_and_matvec_views_agree(self, case):
        xs = np.random.default_rng(22).standard_normal(90)
        xs[45:] += 1.5
        cfg = dict(model=SingleCpModel(mu0=0.0, sigma=0.1))
        if case == "fused-floored-rows":
            xs, cfg = floor_binding_series(), dict(model=ESTIMATED)
        elif case == "dense-sample":
            cfg = dict(model=KNOWN, mode=EstimationMode.POSTERIOR_SAMPLE)
        elif case == "dense-variance":
            cfg = dict(model=SingleCpModel(), variance_change=True)
        state = run_series(xs, seed=5, **cfg)
        n = len(xs)
        tables = build_conditional_tables(state.prefix, state.config, state.rng, state._floor())
        if case == "factored-exact-rows":
            assert tables.exact.size > 0
        elif case == "fused-floored-rows":
            assert floored_rows(xs, state._floor())
        else:
            assert kernel._table_path(state.config) == "dense"
        dense = tables.last_given_second
        p_second = np.random.default_rng(23).dirichlet(np.ones(n + 1))
        np.testing.assert_allclose(
            tables.last_from_second(p_second), dense.T @ p_second, rtol=0, atol=1e-12
        )


def css_post_formula(S, Q, n):
    """css(i, n) for i = 0..n, from the prefix sums."""
    m = np.arange(float(n), -1.0, -1.0)
    s = S[n] - S
    return np.maximum((Q[n] - Q) - s * s / np.maximum(m, 1.0), 0.0)


def two_shift_stream(n, seed):
    xs = np.random.default_rng(seed).standard_normal(n)
    xs[n // 3 :] += 1.5
    xs[2 * n // 3 :] -= 1.0
    return xs


def assert_bits_equal(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestPerStepVectorsComputedOnce:
    """The cache's css(i, n) column, which the zero-or-one posterior reads,
    is bit for bit what the formula gives, on every table path."""

    @pytest.mark.parametrize("case", ["uncapped", "second-build", "after-restore"])
    @pytest.mark.parametrize(
        "config",
        [CppConfig(model=KNOWN), CppConfig(model=ESTIMATED),
         CppConfig(model=ESTIMATED, estimation_mode=EstimationMode.POSTERIOR_SAMPLE),
         CppConfig(variance_change=True)],
        ids=["factored", "fused", "sampled", "variance-change"],
    )
    def test_css_post_is_the_formula_at_every_step(self, monkeypatch, config, case):
        model = config.model
        seen, built = [], []
        hzero, build = kernel._hzero_posterior, kernel.build_conditional_tables

        def spy_hzero(n, S, Q, css_post, *rest):
            seen.append(css_post)
            return hzero(n, S, Q, css_post, *rest)

        def spy_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(kernel, "_hzero_posterior", spy_hzero)
        monkeypatch.setattr(kernel, "build_conditional_tables", spy_build)
        state = CppState(config, rng=0)
        for n, x in enumerate(two_shift_stream(200, 31), start=1):
            if case == "after-restore" and n in (2, 57, 150):
                state = CppState.from_json(state.to_json())
            state.observe(x)
            if n == 1:
                continue
            if case == "second-build":
                floor = state._floor() if model.sigma is None else None
                build(state.prefix, config, state.rng, floor, cache=state._cache,
                      memo=state.history.matrix(n - 1))
            S, Q = state.prefix.arrays()
            expected = css_post_formula(S, Q, n)
            assert_bits_equal(seen[-1], expected)
            assert_bits_equal(state._cache.css_post, expected)
            if model.sigma is not None:
                # the factored post = exp(b - max b), b = -css(i, n) / 2 sigma^2
                b = expected[2:n] / -2.0
                b -= b.max(initial=-np.inf)
                assert_bits_equal(built[-1].post[2:n], np.exp(b))
        assert len(seen) == 199 * (2 if case == "second-build" else 1)


def product_block_case(case):
    """A 200-point (180 for the dense modes) config and stream whose last
    step exercises the named kind of table rows."""
    xs = two_shift_stream(200, 41)
    if case == "factored-whole-rows":
        return CppConfig(model=SingleCpModel(mu0=0.0, sigma=0.1)), xs
    if case == "fused-floored-rows":
        xs = np.round(xs, 1)
        xs[-15:] = xs[-16]  # the floor binds on the rows whose window is constant
        return CppConfig(model=ESTIMATED), xs
    if case == "dense-sample":
        return CppConfig(model=KNOWN, estimation_mode=EstimationMode.POSTERIOR_SAMPLE), xs[:180]
    return CppConfig(model=SingleCpModel(), variance_change=True), xs[:180]


class TestProductBlockHeight:
    """The three matrix-vector products of a step read only the filled
    triangle of their operand, in blocks of ``_PRODUCT_BLOCK_ROWS`` rows.
    Whatever the height, Z (through ``row_scale``), ``last_from_second`` and
    the memo lookup in ``jacobi_step`` agree with products of the dense
    ``last_given_second`` and memo to rounding; up to the height, each is
    the single product over the whole operand, bit for bit."""

    @pytest.mark.parametrize(
        "case", ["factored-whole-rows", "fused-floored-rows", "dense-sample", "variance-change"]
    )
    def test_products_match_dense_at_every_height(self, monkeypatch, case):
        config, xs = product_block_case(case)
        state = run_series(xs, model=config.model, mode=config.estimation_mode, seed=5,
                           variance_change=config.variance_change)
        n = state.n
        floor = state._floor() if config.model.sigma is None else None
        memo = state.history.matrix(n - 1)
        vectors = np.random.default_rng(42).dirichlet(np.ones(n + 1), size=2)
        p_last, p_second = vectors[0], 0.5 * vectors[1]
        tril = np.tril(np.random.default_rng(43).random((n, n)))
        for height in (1, 7, 160, n + 1):
            monkeypatch.setattr(kernel, "_PRODUCT_BLOCK_ROWS", height)
            tables = build_conditional_tables(
                state.prefix, config, np.random.default_rng(6), floor, memo=memo
            )
            if case == "factored-whole-rows":
                assert tables.exact.size > 0
            elif case == "fused-floored-rows":
                assert (tables.row_scale[n - 15 : n - 2] == 1.0).all()
            z = tables.weights[1 : n - 1] @ tables.post
            row_scale, dense = tables.row_scale, tables.last_given_second
            got_last = tables.last_from_second(p_second)
            _, got_second, _ = jacobi_step(p_last, p_second, tables)
            expected_second = np.minimum(memo.T @ p_last[:n], 1.0)
            # P_k(k) is 0 in a real history; a hand-set diagonal shows that each
            # block reads column r1 - 1 of its last row r1 - 1
            _, got_tril, _ = jacobi_step(p_last, p_second, dataclasses.replace(tables, memo=tril))
            if kernel._table_path(config) == "factored":
                ok = z >= kernel._MIN_ROW_NORM
                assert ok.any()
                np.testing.assert_allclose(row_scale[1 : n - 1][ok], 1.0 / z[ok], rtol=1e-13)
            np.testing.assert_allclose(got_last, dense.T @ p_second, rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(got_second[:n], expected_second, rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(got_tril[:n], tril.T @ p_last[:n], rtol=1e-13)
            if height >= n:
                # the single products over the whole operand, as written before blocking
                if kernel._table_path(config) == "factored":
                    single = np.zeros(n - 2)
                    np.divide(1.0, z, out=single, where=z >= kernel._MIN_ROW_NORM)
                    assert_bits_equal(row_scale[1 : n - 1], single)
                single = (p_second * row_scale) @ tables.weights
                single *= tables.post
                if tables.exact.size:
                    single += p_second[tables.exact] @ tables.exact_rows
                assert_bits_equal(got_last, single)
                assert_bits_equal(got_second[:n], expected_second)
                assert_bits_equal(got_tril[:n], tril.T @ p_last[:n])


THP_ENABLED = "/sys/kernel/mm/transparent_hugepage/enabled"
FOUR_MIB = 1 << 22


def huge_pages_available():
    """Whether the kernel may back anonymous memory with transparent huge pages."""
    try:
        with open(THP_ENABLED) as f:
            return "[never]" not in f.read()
    except OSError:
        return False


def anon_huge_kb(array):
    """AnonHugePages, in kB, of every /proc/self/smaps entry that overlaps
    the bytes of ``array``."""
    lo = array.__array_interface__["data"][0]
    hi = lo + array.nbytes
    found, overlaps = [], False
    with open("/proc/self/smaps") as f:
        for line in f:
            head = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if head:
                overlaps = int(head[1], 16) < hi and lo < int(head[2], 16)
            elif overlaps and line.startswith("AnonHugePages:"):
                found.append(int(line.split()[1]))
    return found


class TestLargeBuffers:
    """From 4 MiB the history and cache buffers are mapped in base pages."""

    @pytest.mark.skipif(not huge_pages_available(), reason="no transparent huge pages")
    def test_history_and_cache_take_no_huge_pages(self):
        state = run_series(two_shift_stream(600, 5))
        restored = CppState.from_json(state.to_json())
        for buf in (state.history._buf, state._cache._buf, restored.history._buf):
            assert buf.nbytes >= FOUR_MIB
            kb = anon_huge_kb(buf)
            assert kb and all(k == 0 for k in kb), kb

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_a_forked_child_writes_its_own_copy(self):
        history = PosteriorMatrix()
        for k in range(1, 521):
            history.append(np.full(k + 1, 1.0 / k))
        assert history._buf.nbytes >= FOUR_MIB
        pid = os.fork()
        if pid == 0:
            try:
                history._buf[520, 1] = 0.5
                os._exit(0 if history.row(520)[0] == 0.5 else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert history.row(520)[0] == 1.0 / 520

    def test_restore_past_4_mib_matches_the_uninterrupted_run(self):
        xs = two_shift_stream(521, 6)
        full = run_series(xs)
        half = run_series(xs[:520])
        resumed = CppState.from_json(half.to_json())
        assert resumed.history._buf.shape == (1024, 1024)  # 8 MiB
        assert_same_state(resumed, half)
        resumed.observe(xs[520])
        assert_same_state(resumed, full)
