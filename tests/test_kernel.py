"""Tests for the incremental changepoint-probability kernel.

The kernel's vectorized conditional tables are checked against the scalar
per-window posteriors in cpdetect.single_change, and the Jacobi update is
checked against hand-computed substitutions on small hand-set tables.
"""

import json

import numpy as np
import pytest

from cpdetect import kernel
from cpdetect.gaussian_stats import EstimationMode
from cpdetect.kernel import (
    ConditionalTables,
    CppConfig,
    CppState,
    CssCache,
    ExpCssCache,
    FactoredTables,
    FusedTables,
    PosteriorMatrix,
    build_conditional_tables,
    jacobi_step,
)
from cpdetect.gaussian_stats import PrefixStats
from cpdetect.single_change import (
    SingleCpModel,
    posterior_exactly_one,
    posterior_zero_or_one,
)

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

    @pytest.mark.parametrize("case", ["scaled-1e160", "600-of-1e152"])
    def test_rejects_observations_whose_squares_overflow(self, case):
        if case == "scaled-1e160":
            xs = np.random.default_rng(0).standard_normal(120)
            xs[60:] += 2.0
            xs *= 1e160
        else:
            xs = np.full(600, 1e152)
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


class TestJacobiStep:
    def test_zero_second_mass_collapses_to_hzero_posterior(self):
        xs = np.random.default_rng(1).standard_normal(12)
        prefix = PrefixStats(xs)
        config = CppConfig(model=KNOWN)
        tables = build_conditional_tables(prefix, config, np.random.default_rng(0), 1e-8)
        tables.memo = np.zeros((0, 0))
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
        tables = ConditionalTables(
            n=n, lo=0, last_given_hzero=c0, none_given_hzero=0.5,
            last_given_second=lgs, memo=memo,
        )
        p_last = np.array([0.0, 0.2, 0.4, 0.1])
        p_second = np.array([0.0, 0.5, 0.0, 0.0])
        new_last, new_second, new_hzero = jacobi_step(p_last, p_second, tables)
        # new_last = c0 * (1 - 0.5) + column contribution from j=1
        np.testing.assert_allclose(new_last, [0.0, 0.1, 0.65, 0.0], atol=1e-12)
        # new_second[1] = memo[2, 1] * p_last[2]
        np.testing.assert_allclose(new_second, [0.0, 0.4, 0.0, 0.0], atol=1e-12)
        assert new_hzero == pytest.approx(0.6)

    def test_dimension_mismatch_raises(self):
        tables = ConditionalTables(
            n=3, lo=0, last_given_hzero=np.zeros(4), none_given_hzero=1.0,
            last_given_second=np.zeros((4, 4)), memo=np.zeros((0, 0)),
        )
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
                state.prefix, state.config, state.rng, state._floor()
            )
            tables.memo = state.history.matrix(len(xs) - 1)
            pl = np.append(state.p_last, 0.0)
            ps = np.append(state.p_second, 0.0)
            pl1, ps1, _ = jacobi_step(pl, ps, tables)
            pl2, ps2, _ = jacobi_step(pl1, ps1, tables)
            r1 = np.abs(pl1 - pl).sum() + np.abs(ps1 - ps).sum()
            r2 = np.abs(pl2 - pl1).sum() + np.abs(ps2 - ps1).sum()
            if r2 > r1 + 1e-9:
                worse += 1
        assert worse <= 5


class TestConditionalTablesAgainstScalarReference:
    @pytest.mark.parametrize(
        "model",
        [
            SingleCpModel(mu0=0.0, sigma=1.0),
            SingleCpModel(mu0=0.0, sigma=None),
            SingleCpModel(mu0=None, sigma=1.0),
            SingleCpModel(mu0=None, sigma=None),
        ],
        ids=["known-known", "known-est", "est-known", "est-est"],
    )
    def test_suffix_posteriors_match_single_change(self, model):
        rng = np.random.default_rng(21)
        xs = rng.standard_normal(18)
        xs[9:] += 1.5
        prefix = PrefixStats(xs)
        config = CppConfig(model=model)
        tables = build_conditional_tables(prefix, config, np.random.default_rng(0), 1e-8)
        n = len(xs)
        # rows of last_given_second are exactly-one posteriors on suffixes
        for j in range(1, n - 1):
            suffix_model = SingleCpModel(
                mu0=None, sigma=model.sigma, change_prior_f=model.change_prior_f
            )
            ref = posterior_exactly_one(xs[j:], suffix_model, start=j + 1)
            np.testing.assert_allclose(
                tables.last_given_second[j, j + 1 : n], ref.values, atol=1e-9
            )
        # the H-zero branch is the zero-or-one posterior on the full window
        p_none, vec = posterior_zero_or_one(xs, model)
        assert tables.none_given_hzero == pytest.approx(p_none, abs=1e-9)
        np.testing.assert_allclose(tables.last_given_hzero[1:n], vec.values, atol=1e-9)


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
            pytest.param(dict(window_cap=25), id="window_cap=25"),
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

    def test_second_changepoint_mass_after_two_strong_jumps(self):
        rng = np.random.default_rng(6)
        xs = np.concatenate(
            [rng.standard_normal(20), rng.standard_normal(20) + 5.0, rng.standard_normal(20) + 10.0]
        )
        state = run_series(xs, seed=6)
        vec, p_hzero = state.query_p_second()
        assert vec.total() > 0.99
        assert p_hzero < 0.01


class TestWindowCap:
    def test_capped_state_still_detects_recent_jump(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.standard_normal(50), rng.standard_normal(20) + 3.0])
        capped = run_series(xs, seed=7, window_cap=30)
        assert capped.decision_g() > 0.9
        assert capped.query_p_last().argmax() == pytest.approx(50, abs=3)

    def test_frozen_entries_stop_changing(self):
        rng = np.random.default_rng(8)
        xs = rng.standard_normal(45)
        state = CppState(config=CppConfig(model=KNOWN, window_cap=20), rng=8)
        for x in xs:
            state.observe(x)
        frozen_before = state.p_last[:10].copy()
        for x in rng.standard_normal(5):
            state.observe(x)
        np.testing.assert_array_equal(state.p_last[:10], frozen_before)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            CppConfig(model=KNOWN, window_cap=2)


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

    @pytest.mark.parametrize("case", ["list-format", "truncated-history", "short-p_last"])
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
        elif case == "truncated-history":
            doc["posterior_rows"] = doc["posterior_rows"][:-12]
            match = "posterior_rows"
        else:
            doc["p_last"] = kernel._pack(state.p_last[2:])
            match = "p_last"
        with pytest.raises(ValueError, match=match):
            CppState.from_json(json.dumps(doc))

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
    """css(j, i) for 0 <= j < i <= n, one column at a time, +inf elsewhere."""
    S, Q = PrefixStats(xs).arrays()
    n = len(xs)
    out = np.full((n + 1, n + 1), np.inf)
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
            ExpCssCache(0.7).extend(S, Q), np.exp(-expected / (2.0 * 0.7 * 0.7))
        )


class TestFactoredTables:
    def test_config_selects_the_path(self):
        prefix = PrefixStats(np.random.default_rng(0).standard_normal(12))

        def tables(**cfg):
            return build_conditional_tables(prefix, CppConfig(**cfg), np.random.default_rng(0), 1e-8)

        assert isinstance(tables(model=KNOWN), FactoredTables)
        assert isinstance(tables(model=SingleCpModel(sigma=1.0)), FactoredTables)
        assert isinstance(tables(model=SingleCpModel(mu0=0.0)), FusedTables)
        assert isinstance(
            tables(model=KNOWN, estimation_mode=EstimationMode.POSTERIOR_SAMPLE),
            ConditionalTables,
        )
        assert isinstance(tables(variance_change=True), ConditionalTables)

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
        for j in range(1, n - 1):
            ref = reference_row(xs, j, 1.0)
            got = tables.second_row(j)
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

    def test_capped_run_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(15)
        xs = np.concatenate([rng.standard_normal(40), rng.standard_normal(30) + 2.0])
        factored = run_series(xs, window_cap=25)
        dense = run_dense(xs, monkeypatch, window_cap=25)
        assert_states_close(factored, dense, atol=1e-12)


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


class TestFusedTables:
    def test_estimated_sigma_plug_in_takes_the_fused_path(self):
        prefix = PrefixStats(np.random.default_rng(0).standard_normal(12))
        for model in (SingleCpModel(), SingleCpModel(mu0=0.0), ESTIMATED):
            tables = build_conditional_tables(
                prefix, CppConfig(model=model), np.random.default_rng(0), 1e-8
            )
            assert isinstance(tables, FusedTables)

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
        rng = np.random.default_rng(16)
        xs = np.round(rng.standard_normal(90), 1)
        xs[30:45] = 0.3
        xs[45:] += 2.0
        xs[-12:] = xs[-13]
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

    def test_capped_run_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(19)
        xs = np.concatenate([rng.standard_normal(40), rng.standard_normal(30) + 2.0])
        fused = run_series(xs, model=ESTIMATED, window_cap=25)
        dense = run_dense(xs, monkeypatch, model=ESTIMATED, window_cap=25)
        assert_states_close(fused, dense, atol=1e-12)
