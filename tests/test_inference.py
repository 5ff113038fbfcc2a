"""Tests for the pair order, weights, and the two hypothesis tests.

The heavy oracle here is exhaustive arrangement enumeration: for small
configurations every distinct label sequence is generated with plain
itertools, the statistic is recomputed per arrangement, and the
resulting exact moments are compared with what the tests assume.
"""

import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal, norm

from relevance_kit import inference
from relevance_kit.counts import GroupAssignment, count_edges
from relevance_kit.inference import (
    WeightMatrix,
    build_sigma,
    minimum_statistic,
    minimum_test,
    mvn_upper_tail,
    permutation_pvalue,
    weighted_sum_statistic,
    weighted_sum_test,
)
from relevance_kit.inference import TestResult as Outcome
from relevance_kit.moments import MomentContext, enumerate_null_moments

PAIRS_4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def arrangement_statistics(sizes, stat_fn):
    """Statistic value for every distinct label arrangement (plain loops)."""
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    path = np.arange(labels.size)
    values = []
    for arr in sorted(set(itertools.permutations(labels.tolist()))):
        table = count_edges(path, GroupAssignment(np.array(arr)))
        values.append(stat_fn(table))
    return np.array(values)


def pair_table(k, entries):
    """Symmetric k x k table from {(m, l): value} with 1-based pairs."""
    t = np.zeros((k, k))
    for (m, l), v in entries.items():
        t[m - 1, l - 1] = t[l - 1, m - 1] = v
    return t


class TestPairIndexing:
    """Pairs run (1,2), (1,3), ..., (k-1,k) in WeightMatrix.vector and build_sigma alike."""

    def test_three_group_layout(self):
        grid = pair_table(3, {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 3.0})
        assert WeightMatrix(grid).vector().tolist() == [1.0, 2.0, 3.0]

    def test_four_group_layout(self):
        ctx = MomentContext(np.array([3, 4, 5, 6]))
        diag = np.diag(build_sigma(ctx))
        for l, (i, j) in enumerate(PAIRS_4):
            assert diag[l] == ctx.var[i - 1, j - 1]

    @pytest.mark.parametrize("k", range(2, 11))
    def test_round_trip(self, k):
        rng = np.random.default_rng(k)
        grid = rng.random((k, k))
        w = WeightMatrix(grid + grid.T)
        iu, ju = np.triu_indices(k, 1)
        back = np.zeros((k, k))
        back[iu, ju] = back[ju, iu] = w.vector()
        assert np.array_equal(back, w.grid)
        ctx = MomentContext(np.arange(1, k + 1) + 2)
        assert np.array_equal(np.diag(build_sigma(ctx)), ctx.var[iu, ju])

    def test_pairs_in_linear_order(self):
        # pairs sharing no group covary positively, pairs sharing a small
        # group negatively: the sign pattern pins the layout of Sigma
        sigma = build_sigma(MomentContext(np.array([3, 4, 5, 6])))
        for a, p1 in enumerate(PAIRS_4):
            for b, p2 in enumerate(PAIRS_4):
                shared = len(set(p1) & set(p2))
                if shared == 0:
                    assert sigma[a, b] > 0.0
                elif shared == 1:
                    assert sigma[a, b] < 0.0

    def test_rejects_degenerate_k(self):
        with pytest.raises(ValueError, match="k >= 2"):
            WeightMatrix(np.ones((1, 1)))


class TestWeightMatrix:
    def test_default_is_inverse_null_sd(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        w = WeightMatrix.default(ctx)
        for i in range(3):
            assert w.grid[i, i] == 0.0
            for j in range(i + 1, 3):
                expected = ctx.var[i, j] ** -0.5
                assert w.grid[i, j] == pytest.approx(expected, rel=1e-12)
                assert w.grid[j, i] == w.grid[i, j]

    def test_default_rejects_zero_variance_pair(self):
        # with one observation per group and N=2 the single count is constant
        with pytest.raises(ValueError, match="default weights undefined"):
            WeightMatrix.default(MomentContext(np.array([1, 1])))

    def test_unit_weights(self):
        w = WeightMatrix.unit(3)
        assert_allclose(w.grid, np.ones((3, 3)) - np.eye(3))

    def test_vector_built_once_and_read_only(self):
        w = WeightMatrix.default(MomentContext(np.array([3, 4, 5])))
        assert w.vector() is w.vector()
        assert not w.vector().flags.writeable
        assert not w.grid.flags.writeable

    def test_vector_follows_pair_index_order(self):
        grid = pair_table(4, {(1, 2): 1.0, (1, 3): 2.0, (1, 4): 3.0, (2, 3): 4.0, (2, 4): 5.0, (3, 4): 6.0})
        vec = WeightMatrix(grid).vector()
        for l, (i, j) in enumerate(PAIRS_4):
            assert vec[l] == grid[i - 1, j - 1]

    def test_diagonal_is_discarded(self):
        grid = np.ones((2, 2))
        w = WeightMatrix(grid)
        assert w.grid[0, 0] == 0.0 and w.grid[1, 1] == 0.0

    def test_with_zeroed_pairs(self):
        w = WeightMatrix.unit(3).with_zeroed_pairs([(1, 3), (3, 2)])
        assert w.grid[0, 2] == 0.0 and w.grid[2, 0] == 0.0
        assert w.grid[1, 2] == 0.0 and w.grid[2, 1] == 0.0
        assert w.grid[0, 1] == 1.0

    def test_zeroing_does_not_mutate_original(self):
        w = WeightMatrix.unit(3)
        w.with_zeroed_pairs([(1, 2)])
        assert w.grid[0, 1] == 1.0

    def test_zeroing_rejects_bad_pair(self):
        with pytest.raises(ValueError, match=r"invalid pair \(2,2\)"):
            WeightMatrix.unit(3).with_zeroed_pairs([(2, 2)])

    def test_rejects_negative_weight(self):
        grid = pair_table(2, {(1, 2): -1.0})
        with pytest.raises(ValueError, match="nonnegative"):
            WeightMatrix(grid)

    def test_rejects_asymmetric_grid(self):
        grid = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            WeightMatrix(grid)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError, match="at least one"):
            WeightMatrix(np.zeros((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="k x k"):
            WeightMatrix(np.ones((2, 3)))


class TestResultValidation:
    def test_rejects_invalid_p_value(self):
        with pytest.raises(ValueError, match="outside"):
            Outcome(
                statistic=0.0,
                p_value=1.5,
                critical_value=0.0,
                reject=False,
                method="weighted_sum",
                alpha=0.05,
            )


class TestWeightedSumStatistic:
    def test_hand_computed(self):
        table = pair_table(3, {(1, 2): 4, (1, 3): 2, (2, 3): 5})
        w = WeightMatrix(pair_table(3, {(1, 2): 1.0, (1, 3): 0.5, (2, 3): 2.0}))
        assert weighted_sum_statistic(table, w) == pytest.approx(4 + 1 + 10)

    def test_ignores_diagonal_counts(self):
        table = pair_table(2, {(1, 2): 3})
        table[0, 0] = 7.0
        assert weighted_sum_statistic(table, WeightMatrix.unit(2)) == pytest.approx(3.0)

    def test_rejects_wrong_table_shape(self):
        with pytest.raises(ValueError, match="does not match k=3"):
            weighted_sum_statistic(np.zeros((2, 2)), WeightMatrix.unit(3))


class TestBuildSigma:
    def test_built_once_per_context_and_read_only(self):
        ctx = MomentContext(np.array([3, 4, 5]))
        sigma = build_sigma(ctx)
        assert build_sigma(ctx) is sigma
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0, 0] = 1.0

    @pytest.mark.parametrize("sizes", [(2, 3), (1, 1, 1), (2, 2, 2), (1, 2, 3), (2, 2, 2, 2)], ids=str)
    def test_matches_enumeration(self, sizes):
        enum = enumerate_null_moments(GroupAssignment(np.repeat(np.arange(1, len(sizes) + 1), sizes)))
        sigma = build_sigma(MomentContext(np.array(sizes)))
        pairs = [(i + 1, j + 1) for i, j in zip(*np.triu_indices(len(sizes), 1))]
        for a, p1 in enumerate(pairs):
            for b, p2 in enumerate(pairs):
                assert_allclose(sigma[a, b], enum.cov_of(p1, p2), atol=1e-12)

    def test_exactly_symmetric(self):
        sigma = build_sigma(MomentContext(np.array([7, 11, 13])))
        assert np.array_equal(sigma, sigma.T)


class TestWeightedSumTest:
    @pytest.mark.parametrize("sizes", [(2, 3), (2, 2, 2), (1, 2, 3)], ids=str)
    @pytest.mark.parametrize("weights", ["unit", "default"])
    def test_null_moments_match_arrangement_enumeration(self, sizes, weights):
        ctx = MomentContext(np.array(sizes))
        w = WeightMatrix.unit(len(sizes)) if weights == "unit" else WeightMatrix.default(ctx)
        values = arrangement_statistics(sizes, lambda t: weighted_sum_statistic(t, w))
        table = pair_table(len(sizes), {(1, 2): 1})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = weighted_sum_test(table, w, ctx)
        assert_allclose(res.null_mean, values.mean(), rtol=1e-12)
        assert_allclose(res.null_sd, values.std(ddof=0), rtol=1e-12)

    def test_p_is_half_at_null_mean(self):
        ctx = MomentContext(np.array([3, 4]))
        table = pair_table(2, {(1, 2): ctx.mean[0, 1]})
        res = weighted_sum_test(table, WeightMatrix.unit(2), ctx)
        assert res.p_value == pytest.approx(0.5, abs=1e-15)
        assert not res.reject

    def test_hand_computed_two_group_case(self):
        # sizes (2,2): mean 2, variance 14/3 - 4 = 2/3; a count of 1 gives
        # z = -sqrt(3/2) and one-sided p about 0.1103
        ctx = MomentContext(np.array([2, 2]))
        res = weighted_sum_test(pair_table(2, {(1, 2): 1}), WeightMatrix.unit(2), ctx)
        assert res.null_mean == pytest.approx(2.0)
        assert res.null_sd == pytest.approx((2.0 / 3.0) ** 0.5)
        assert res.p_value == pytest.approx(0.110336, abs=1e-6)

    def test_p_value_monotone_in_statistic(self):
        ctx = MomentContext(np.array([10, 12]))
        w = WeightMatrix.unit(2)
        ps = [
            weighted_sum_test(pair_table(2, {(1, 2): s}), w, ctx).p_value for s in range(1, 12)
        ]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_invariant_under_weight_scaling(self):
        ctx = MomentContext(np.array([5, 6, 7]))
        table = pair_table(3, {(1, 2): 3, (1, 3): 4, (2, 3): 2})
        w = WeightMatrix.default(ctx)
        scaled = WeightMatrix(w.grid * 37.5)
        r1 = weighted_sum_test(table, w, ctx)
        r2 = weighted_sum_test(table, scaled, ctx)
        assert_allclose(r1.p_value, r2.p_value, rtol=1e-12)
        assert r1.reject == r2.reject

    @pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.5, 0.9])
    @pytest.mark.parametrize("sizes", [(10, 12), (20, 30, 40), (5, 6, 7, 8)], ids=str)
    def test_critical_value_is_normal_quantile(self, sizes, alpha):
        ctx = MomentContext(np.array(sizes))
        table = np.ones((len(sizes), len(sizes)))
        res = weighted_sum_test(table, WeightMatrix.default(ctx), ctx, alpha)
        assert res.critical_value == res.null_mean + norm.ppf(alpha) * res.null_sd

    def test_reject_iff_p_below_alpha(self):
        ctx = MomentContext(np.array([10, 12]))
        w = WeightMatrix.unit(2)
        for s in (1, 4, 8, 11):
            for alpha in (0.01, 0.05, 0.2):
                res = weighted_sum_test(pair_table(2, {(1, 2): s}), w, ctx, alpha=alpha)
                assert res.reject == (res.p_value < alpha)

    def test_warns_on_singleton_groups(self):
        ctx = MomentContext(np.array([1, 5]))
        with pytest.warns(RuntimeWarning, match="single observation"):
            weighted_sum_test(pair_table(2, {(1, 2): 1}), WeightMatrix.unit(2), ctx)

    def test_rejects_degenerate_null_variance(self):
        ctx = MomentContext(np.array([1, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="degenerate"):
                weighted_sum_test(pair_table(2, {(1, 2): 1}), WeightMatrix.unit(2), ctx)

    def test_rejects_mismatched_weights(self):
        ctx = MomentContext(np.array([4, 5]))
        with pytest.raises(ValueError, match="k=2"):
            weighted_sum_test(np.zeros((3, 3)), WeightMatrix.unit(3), ctx)

    def test_rejects_bad_alpha(self):
        ctx = MomentContext(np.array([4, 5]))
        with pytest.raises(ValueError, match="alpha"):
            weighted_sum_test(pair_table(2, {(1, 2): 1}), WeightMatrix.unit(2), ctx, alpha=1.0)


class TestMinimumStatistic:
    def test_matches_direct_scan(self):
        rng = np.random.default_rng(8088)
        ctx = MomentContext(np.array([4, 6, 5]))
        w = WeightMatrix.default(ctx)
        for _ in range(10):
            table = pair_table(
                3, {(1, 2): rng.integers(0, 9), (1, 3): rng.integers(0, 9), (2, 3): rng.integers(0, 9)}
            )
            n = ctx.sizes
            expected = min(
                w.grid[i - 1, j - 1] * (table[i - 1, j - 1] - 2.0 * n[i - 1] * n[j - 1] / 15)
                for i, j in [(1, 2), (1, 3), (2, 3)]
            )
            assert minimum_statistic(table, w, ctx) == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_pairs_are_excluded(self):
        ctx = MomentContext(np.array([4, 6, 5]))
        # pair (1,2) has count far below its mean but carries no weight
        table = pair_table(3, {(1, 2): 0, (1, 3): 5, (2, 3): 6})
        w = WeightMatrix.unit(3).with_zeroed_pairs([(1, 2)])
        expected = min(5 - 2.0 * 4 * 5 / 15, 6 - 2.0 * 6 * 5 / 15)
        assert minimum_statistic(table, w, ctx) == pytest.approx(expected)

    def test_rejects_mismatched_weights(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        with pytest.raises(ValueError, match="k=3"):
            minimum_statistic(np.zeros((2, 2)), WeightMatrix.unit(2), ctx)


class TestMinimumTest:
    def test_two_groups_equivalent_to_weighted_sum(self):
        # with a single pair both statistics are monotone images of the
        # same count, so the p-values agree to floating-point precision
        ctx = MomentContext(np.array([8, 13]))
        w = WeightMatrix.default(ctx)
        for s in range(1, 16):
            table = pair_table(2, {(1, 2): s})
            p_ws = weighted_sum_test(table, w, ctx).p_value
            p_min = minimum_test(table, w, ctx).p_value
            assert_allclose(p_min, p_ws, atol=1e-12)

    def test_two_groups_decisions_agree(self):
        ctx = MomentContext(np.array([8, 13]))
        w = WeightMatrix.default(ctx)
        for s in range(1, 16):
            table = pair_table(2, {(1, 2): s})
            for alpha in (0.01, 0.05, 0.1):
                assert (
                    minimum_test(table, w, ctx, alpha=alpha).reject
                    == weighted_sum_test(table, w, ctx, alpha=alpha).reject
                )

    def test_critical_value_is_level_alpha_root(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        w = WeightMatrix.default(ctx)
        res = minimum_test(pair_table(3, {(1, 2): 3, (1, 3): 3, (2, 3): 3}), w, ctx, alpha=0.05)
        sigma = build_sigma(ctx)
        tail = mvn_upper_tail(sigma, res.critical_value / w.vector())
        assert_allclose(1.0 - tail, 0.05, atol=1e-3)

    def test_reject_iff_statistic_at_or_below_critical(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        w = WeightMatrix.default(ctx)
        for entries in [{(1, 2): 1, (1, 3): 2, (2, 3): 2}, {(1, 2): 4, (1, 3): 5, (2, 3): 5}]:
            res = minimum_test(pair_table(3, entries), w, ctx)
            assert res.reject == (res.statistic <= res.critical_value)

    def test_p_value_agrees_with_decision_away_from_boundary(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        w = WeightMatrix.default(ctx)
        for entries in [{(1, 2): 1, (1, 3): 2, (2, 3): 2}, {(1, 2): 4, (1, 3): 5, (2, 3): 5}]:
            res = minimum_test(pair_table(3, entries), w, ctx)
            if abs(res.statistic - res.critical_value) > 1e-3:
                assert res.reject == (res.p_value < res.alpha)

    def test_critical_value_tightens_with_alpha(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        w = WeightMatrix.default(ctx)
        table = pair_table(3, {(1, 2): 3, (1, 3): 3, (2, 3): 3})
        crit_01 = minimum_test(table, w, ctx, alpha=0.01).critical_value
        crit_10 = minimum_test(table, w, ctx, alpha=0.10).critical_value
        assert crit_01 < crit_10

    def test_zeroed_pair_removes_its_constraint(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        table = pair_table(3, {(1, 2): 0, (1, 3): 5, (2, 3): 6})
        w_all = WeightMatrix.unit(3)
        w_sub = w_all.with_zeroed_pairs([(1, 2)])
        res_all = minimum_test(table, w_all, ctx)
        res_sub = minimum_test(table, w_sub, ctx)
        assert res_sub.statistic > res_all.statistic
        assert res_sub.p_value > res_all.p_value

    def test_degenerate_null_raises_before_integrating(self, monkeypatch):
        # sizes [1, 1]: the one edge is always between, so Sigma is zero
        def no_mvn(*args, **kwargs):
            raise AssertionError("the MVN engine must not be called")

        monkeypatch.setattr(inference, "mvn_upper_tail", no_mvn)
        ctx = MomentContext(np.array([1, 1]))
        table = pair_table(2, {(1, 2): 1})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # singleton groups
            with pytest.raises(ValueError, match="test is degenerate"):
                weighted_sum_test(table, WeightMatrix.unit(2), ctx)
            with pytest.raises(ValueError, match="test is degenerate"):
                minimum_test(table, WeightMatrix.unit(2), ctx)

    def test_deterministic(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        w = WeightMatrix.default(ctx)
        table = pair_table(3, {(1, 2): 2, (1, 3): 4, (2, 3): 3})
        r1 = minimum_test(table, w, ctx)
        r2 = minimum_test(table, w, ctx)
        assert r1.p_value == r2.p_value
        assert r1.critical_value == r2.critical_value


class TestMinimumCriticalRoot:
    """The level-alpha root: a closed-form B2 pre-root, then a full-precision Newton finish."""

    def test_cold_root_makes_few_mvn_calls(self, monkeypatch):
        # One call for the p-value and one Newton step from B2's root, both at
        # the default (full-precision) settings; the p-value's call asks for
        # its standard error too.
        ctx = MomentContext([50] * 10)
        w = WeightMatrix.default(ctx)
        settings_used = []
        engine = inference.mvn_upper_tail

        def counting(*args, **kwargs):
            settings_used.append(kwargs)
            return engine(*args, **kwargs)

        inference._CRIT_CACHE.clear()
        monkeypatch.setattr(inference, "mvn_upper_tail", counting)
        minimum_test(np.round(ctx.mean), w, ctx)
        assert len(settings_used) <= 2
        assert all(set(kwargs) <= {"full_output"} for kwargs in settings_used)

    @pytest.mark.parametrize("sizes, zeroed", [([8, 13], []), ([20, 30, 40], [(1, 2)]),
                                               ([20, 30, 40], []), ([2, 2, 60], [])])
    def test_cold_exact_root_makes_one_mvn_call(self, monkeypatch, sizes, zeroed):
        # Up to three pairs the pre-root is the root of the exact tail, so the
        # finish's first step is accepted: the p-value and that step.
        ctx = MomentContext(sizes)
        w = WeightMatrix.default(ctx).with_zeroed_pairs(zeroed)
        calls = []
        engine = inference.mvn_upper_tail
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(inference, "mvn_upper_tail",
                            lambda *args, **kwargs: calls.append(1) or engine(*args, **kwargs))
        minimum_test(np.round(ctx.mean), w, ctx)
        assert len(calls) == 2

    @pytest.mark.parametrize("sizes, alpha", [([2, 2, 60], 0.1), ([8, 13, 5], 0.05),
                                              ([20, 30, 40], 0.05)])
    def test_exact_tail_is_monotone_through_the_root(self, monkeypatch, sizes, alpha):
        # At K = 3 the tail does not rise anywhere over 200 points 1e-7 apart
        # around the critical value, which is its level-alpha root.  (The
        # engine's tail jumped up there by 8.5e-6 ([2, 2, 60]) and 1.6e-6
        # ([8, 13, 5]) where its factor changed.)
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        ctx = MomentContext(sizes)
        w = WeightMatrix.default(ctx)
        crit = minimum_test(np.round(ctx.mean), w, ctx, alpha=alpha).critical_value
        sigma, wvec = build_sigma(ctx), w.vector()
        tails = [mvn_upper_tail(sigma, z / wvec) for z in crit + 1e-7 * np.arange(-100, 100)]
        assert np.diff(tails).max() <= 0.0
        assert 1.0 - mvn_upper_tail(sigma, crit / wvec) == pytest.approx(alpha, abs=1e-12)

    @pytest.mark.parametrize("sizes", [[8, 13], [20, 30, 40], [5, 7, 100, 3]])
    def test_reports_the_tail_standard_error(self, sizes):
        ctx = MomentContext(sizes)
        w = WeightMatrix.default(ctx)
        res = minimum_test(np.round(ctx.mean), w, ctx)
        _, err = mvn_upper_tail(build_sigma(ctx), res.statistic / w.vector(), full_output=True)
        assert res.p_value_standard_error == err
        assert (err == 0.0) == (len(sizes) <= 3)  # exact up to K = 3 pairs
        assert weighted_sum_test(np.round(ctx.mean), w, ctx).p_value_standard_error is None

    @pytest.mark.parametrize(
        "sizes, bisected, alpha",
        [
            ([50] * 10, -3.0516300, 0.05),
            # [20, 30, 40] (K = 3): roots of the exact tail.  Brent roots of the
            # engine's tail at error_target=1e-9 (standard errors near 4e-7)
            # were -2.1259120 and -2.7128046.
            ([20, 30, 40], -2.1259095, 0.05),
            ([5, 7, 100, 3], -2.3852584, 0.05),
            # roots of the linear-scale tail function at alpha 0.01
            ([50] * 10, -3.5107415, 0.01),
            ([20, 30, 40], -2.7127968, 0.01),
            ([5, 7, 100, 3], -2.9335378, 0.01),
        ],
    )
    def test_matches_bisection_root(self, sizes, bisected, alpha):
        ctx = MomentContext(sizes)
        w = WeightMatrix.default(ctx)
        res = minimum_test(np.round(ctx.mean), w, ctx, alpha=alpha)
        assert res.critical_value == pytest.approx(bisected, abs=1e-5)

    @staticmethod
    def full_precision_root(ctx, alpha, lo, hi, engine=mvn_upper_tail):
        """Brent root of the full-precision probit tail gap on [lo, hi], to 1e-9."""
        wvec = WeightMatrix.default(ctx).vector()
        sigma = build_sigma(ctx)

        def g(z):
            return ndtri(1.0 - engine(sigma, z / wvec)) - ndtri(alpha)

        return brentq(g, lo, hi, xtol=1e-9)

    @staticmethod
    def count_brentq(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return brentq(*args, **kwargs)

        monkeypatch.setattr(inference, "brentq", counting)
        return calls

    @pytest.mark.parametrize(
        "sizes, alpha",
        [
            pytest.param(sizes, alpha, id=f"sizes{i}-{alpha}")
            for i, sizes in enumerate(
                [[8, 13], [2, 2, 60], [5, 5, 5, 100], [3, 3, 3, 3, 200], [2] * 5, [20, 30, 40]]
            )
            for alpha in (0.01, 0.05, 0.1)
        ]
        # K = 45 at alpha 0.01, where B2's root is farthest off: the first step
        # is too long to accept there, and one step alone would miss by 1.2e-6
        # ([3] * 10)
        + [pytest.param([3] * 10, 0.01, id="sizes6-0.01"),
           pytest.param([50] * 10, 0.01, id="sizes7-0.01")],
    )
    def test_matches_full_precision_brent_root(self, monkeypatch, sizes, alpha):
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        ctx = MomentContext(sizes)
        crit = minimum_test(np.round(ctx.mean), WeightMatrix.default(ctx), ctx, alpha=alpha)
        expected = self.full_precision_root(ctx, alpha, crit.critical_value - 0.05,
                                            crit.critical_value + 0.05)
        assert crit.critical_value == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("sizes", [[8, 13], [20, 30, 40]])
    def test_guard_when_the_secant_leaves_the_bracket(self, monkeypatch, sizes):
        # The full-precision tail is shifted and B2 is not, so the tail's root
        # lies far outside the bracket, and the finish steps out of it.
        ctx = MomentContext(sizes)
        w = WeightMatrix.default(ctx)
        engine = inference.mvn_upper_tail

        def disagreeing(s, t, **kw):
            return engine(s, np.asarray(t) + 10.0, **kw)

        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(inference, "mvn_upper_tail", disagreeing)
        brent_calls = self.count_brentq(monkeypatch)
        crit = minimum_test(np.round(ctx.mean), w, ctx).critical_value
        assert len(brent_calls) == 2  # B2's root, then the guard's full-precision root
        expected = self.full_precision_root(ctx, 0.05, crit - 0.05, crit + 0.05, disagreeing)
        assert crit == pytest.approx(expected, abs=1e-6)

    def test_guard_when_the_secant_does_not_converge(self, monkeypatch):
        # The factor seems to change at every step, so no step is accepted.
        # K = 6: up to K = 3 the tail is exact and no factor is compared.
        ctx = MomentContext([20, 30, 40, 50])
        w = WeightMatrix.default(ctx)
        steps = []
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(inference, "_same_factor", lambda *args: steps.append(1) or False)
        brent_calls = self.count_brentq(monkeypatch)
        crit = minimum_test(np.round(ctx.mean), w, ctx).critical_value
        assert len(steps) == inference._FINISH_STEPS
        assert len(brent_calls) == 2
        assert crit == pytest.approx(self.full_precision_root(ctx, 0.05, crit - 0.05, crit + 0.05),
                                     abs=1e-6)

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_guard_when_the_coarse_slope_is_wrong(self, monkeypatch, scale):
        # The full-precision tail is rescaled and B2 is not, so the tail's
        # slope is `scale` times B2's: the finish creeps toward a root outside
        # the bracket (0.5) or overshoots, doubling its error each step (3.0).
        ctx = MomentContext([20, 30, 40])
        engine = inference.mvn_upper_tail

        def rescaled(s, t, **kw):
            return engine(s, np.asarray(t) * scale, **kw)

        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(inference, "mvn_upper_tail", rescaled)
        brent_calls = self.count_brentq(monkeypatch)
        crit = minimum_test(np.round(ctx.mean), WeightMatrix.default(ctx), ctx).critical_value
        assert len(brent_calls) == 2
        expected = self.full_precision_root(ctx, 0.05, crit - 0.05, crit + 0.05, rescaled)
        assert crit == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("slope", [0.0, -1.0, np.nan, np.inf])
    def test_guard_when_the_coarse_slope_is_unusable(self, monkeypatch, slope):
        ctx = MomentContext([20, 30, 40])
        bound = inference._second_order_bound
        finish_calls = []
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(inference, "_second_order_bound",
                            lambda z, s, rho: (bound(z, s, rho)[0], slope))
        monkeypatch.setattr(inference, "_newton_finish", lambda *a: finish_calls.append(1))
        brent_calls = self.count_brentq(monkeypatch)
        crit = minimum_test(np.round(ctx.mean), WeightMatrix.default(ctx), ctx).critical_value
        assert not finish_calls
        assert len(brent_calls) == 2
        assert crit == pytest.approx(self.full_precision_root(ctx, 0.05, crit - 0.05, crit + 0.05),
                                     abs=1e-6)

    def test_guard_when_b2_stays_below_alpha(self, monkeypatch):
        # K = 6: up to K = 3 the pre-root is the exact tail's, not B2's.
        ctx = MomentContext([5, 7, 100, 3])
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(inference, "_second_order_bound",
                            lambda z, s, rho: (np.zeros(np.shape(z)), np.ones(np.shape(z))))
        brent_calls = self.count_brentq(monkeypatch)
        crit = minimum_test(np.round(ctx.mean), WeightMatrix.default(ctx), ctx).critical_value
        assert len(brent_calls) == 1  # no B2 root: only the full-precision one
        assert crit == pytest.approx(self.full_precision_root(ctx, 0.05, crit - 0.05, crit + 0.05),
                                     abs=1e-6)

    def test_b2_pre_root_is_the_first_crossing(self):
        # At K = 45, B2 = S1 - S2 falls far below alpha again before the
        # bracket's upper end, so no sign change can be assumed there.
        ctx = MomentContext([50] * 10)
        sigma = build_sigma(ctx)
        sd = np.sqrt(np.diag(sigma))
        s = WeightMatrix.default(ctx).vector() * sd
        rho = sigma / np.outer(sd, sd)
        lo, hi = s.max() * ndtri(0.05 / s.size) - 0.1, s.min() * ndtri(0.05) + 0.1
        z0, slope = inference._b2_pre_root(s, rho, 0.05, lo, hi)
        bound = lambda z: inference._second_order_bound(z, s, rho)[0]
        assert bound(hi) < 0.05
        assert bound(z0) == pytest.approx(0.05, abs=1e-12)
        assert (bound(np.linspace(lo, z0, 200)[:-1]) < 0.05).all()
        # the root of the integrated tail is within 1e-4 of B2's
        assert z0 == pytest.approx(-3.0516300, abs=1e-4)
        assert 0.0 < slope < np.inf

    def test_b2_slope_matches_a_finite_difference(self):
        sigma = build_sigma(MomentContext([5, 7, 100, 3]))
        sd = np.sqrt(np.diag(sigma))
        s = np.linspace(0.8, 1.3, sd.size)
        rho = sigma / np.outer(sd, sd)
        z = np.array([-3.0, -2.2, -1.1])
        h = 1e-6
        bound, slope = inference._second_order_bound(z, s, rho)
        upper, _ = inference._second_order_bound(z + h, s, rho)
        lower, _ = inference._second_order_bound(z - h, s, rho)
        assert_allclose(slope, (upper - lower) / (2 * h), rtol=1e-7)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_single_pair_root_is_normal_quantile(self, alpha):
        ctx = MomentContext([8, 13])
        res = minimum_test(pair_table(2, {(1, 2): 9}), WeightMatrix.default(ctx), ctx, alpha=alpha)
        assert res.critical_value == pytest.approx(ndtri(alpha), abs=1e-6)

    @pytest.mark.parametrize("shift", [-10.0, 10.0])
    def test_widens_a_bracket_that_misses_the_root(self, monkeypatch, shift):
        # Shifting every threshold by `shift` moves the single-pair root to
        # w * (sd * ndtri(alpha) - shift), far outside [ndtri(alpha) -/+ 0.1].
        ctx = MomentContext([8, 13])
        w = WeightMatrix.default(ctx)
        sd = ctx.pair_var("")[0] ** 0.5
        engine = inference.mvn_upper_tail
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(
            inference, "mvn_upper_tail", lambda s, t, **kw: engine(s, np.asarray(t) + shift, **kw)
        )
        crit = minimum_test(pair_table(2, {(1, 2): 9}), w, ctx).critical_value
        expected = ndtri(0.05) - shift / sd
        assert abs(expected - ndtri(0.05)) > 1.0
        assert crit == pytest.approx(expected, abs=1e-6)

    def test_raises_when_no_sign_change_is_found(self, monkeypatch):
        ctx = MomentContext([4, 5, 6])
        monkeypatch.setattr(inference, "_CRIT_CACHE", {})
        monkeypatch.setattr(inference, "mvn_upper_tail",
                            lambda s, t, full_output=False, **kw: (1.0, 0.0) if full_output else 1.0)
        with pytest.raises(FloatingPointError, match="from above"):
            minimum_test(np.round(ctx.mean), WeightMatrix.default(ctx), ctx)


class TestSecondOrderBound:
    """The closed-form bivariate CDF and the bound B2 = S1 - S2 built from it."""

    @pytest.mark.parametrize("r", [-1.0, -0.99, -0.6, 0.0, 0.3, 0.99, 1.0])
    def test_bivariate_cdf_matches_scipy(self, r):
        h, k = np.meshgrid([-2.7, -0.4, 0.0, 0.9, 3.1], [-1.8, 0.0, 0.25, 2.2])
        got = inference._bvn_cdf(h, k, r)
        joint = multivariate_normal([0.0, 0.0], [[1.0, r], [r, 1.0]], allow_singular=True)
        want = np.array([joint.cdf([a, b]) for a, b in zip(h.ravel(), k.ravel())])
        assert_allclose(got.ravel(), want, rtol=0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(2, 30), min_size=2, max_size=6),
        level=st.floats(0.001, 0.3),
    )
    def test_bound_sandwiches_the_integrated_tail(self, sizes, level):
        ctx = MomentContext(sizes)
        sigma = build_sigma(ctx)
        w = WeightMatrix.default(ctx).vector()
        sd = np.sqrt(np.diag(sigma))
        s = w * sd
        z = float(s.max() * ndtri(level / s.size))  # S1 is about `level` here
        tail, err = mvn_upper_tail(sigma, z / w, full_output=True)
        b2, _ = inference._second_order_bound(z, s, sigma / np.outer(sd, sd))
        s1 = ndtr(z / s).sum()
        slack = 3.0 * err + 1e-12  # the engine is exact, err = 0, at K = 1
        assert b2 <= 1.0 - tail + slack
        assert 1.0 - tail <= s1 + slack


@st.composite
def labelled_tables(draw, max_k=4, max_size=12):
    """Sizes, and a count table from labels shuffled along a straight path."""
    sizes = draw(st.lists(st.integers(1, max_size), min_size=2, max_size=max_k))
    assume(max(sizes) > 1)  # all singletons: every path edge is between, whatever the order
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    order = draw(st.permutations(range(labels.size)))
    return sizes, count_edges(np.arange(labels.size), GroupAssignment(labels[list(order)]))


class TestDecisionMatchesPValue:
    """``reject == (p_value <= alpha)`` for both tests."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(drawn=labelled_tables(max_k=8, max_size=20), alpha=st.floats(0.001, 0.5))
    def test_weighted_sum(self, drawn, alpha):
        sizes, table = drawn
        ctx = MomentContext(sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # singleton groups
            res = weighted_sum_test(table, WeightMatrix.unit(ctx.n_groups), ctx, alpha=alpha)
        assert res.reject == (res.p_value <= alpha)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(drawn=labelled_tables(max_k=3), alpha=st.sampled_from([0.01, 0.05, 0.1]))
    def test_minimum(self, drawn, alpha):
        sizes, table = drawn
        ctx = MomentContext(sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # singleton groups
            res = minimum_test(table, WeightMatrix.unit(ctx.n_groups), ctx, alpha=alpha)
        assert res.reject == (res.p_value <= alpha)


def looped_permutation_pvalue(table, statistic, w, ctx, B, seed):
    """One rng.permutation draw of the design's labels, counted along them in order, per replicate."""
    labels = np.repeat(np.arange(1, ctx.n_groups + 1), ctx.sizes)

    def stat_of(t):
        if statistic == "weighted_sum":
            return weighted_sum_statistic(t, w)
        return minimum_statistic(t, w, ctx)

    observed = stat_of(table)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(B):
        arrangement = GroupAssignment(labels[rng.permutation(ctx.total)])
        stat = stat_of(count_edges(np.arange(ctx.total), arrangement))
        hits += stat <= observed + 100 * np.finfo(float).eps * abs(observed)
    return (1 + hits) / (B + 1)


class TestPermutationPvalue:
    @pytest.fixture
    def separated(self):
        """The table of twenty nodes walked group-1 block then group-2 block."""
        groups = GroupAssignment(np.repeat([1, 2], [10, 10]))
        ctx = MomentContext.from_assignment(groups)
        return count_edges(np.arange(20), groups), WeightMatrix.default(ctx), ctx

    def test_separated_data_gives_small_p(self, separated):
        table, w, ctx = separated
        p = permutation_pvalue(table, w, ctx, B=199, seed=3)
        assert set(p) == {"weighted_sum", "minimum"}
        for stat in p:
            assert p[stat] <= 0.05

    def test_deterministic_given_seed(self, separated):
        table, w, ctx = separated
        p1 = permutation_pvalue(table, w, ctx, B=150, seed=11)
        p2 = permutation_pvalue(table, w, ctx, B=150, seed=11)
        assert p1 == p2

    def test_bounded_away_from_zero(self, separated):
        table, w, ctx = separated
        for p in permutation_pvalue(table, w, ctx, B=100, seed=0).values():
            assert 1.0 / 101.0 <= p <= 1.0

    def test_interleaved_data_gives_large_p(self):
        # alternating labels cross between groups as often as possible
        groups = GroupAssignment(np.tile([1, 2], 10))
        ctx = MomentContext.from_assignment(groups)
        w = WeightMatrix.default(ctx)
        table = count_edges(np.arange(20), groups)
        p = permutation_pvalue(table, w, ctx, B=199, seed=5)["weighted_sum"]
        assert p > 0.5

    def test_rejects_tiny_replicate_count(self, separated):
        table, w, ctx = separated
        with pytest.raises(ValueError, match="at least 100"):
            permutation_pvalue(table, w, ctx, B=50)

    def test_rejects_table_of_wrong_shape(self, separated):
        table, w, ctx = separated
        with pytest.raises(ValueError, match="does not match k=2"):
            permutation_pvalue(np.zeros((3, 3)), w, ctx, B=100)

    def test_rejects_k_mismatch(self, separated):
        table, _, ctx = separated
        with pytest.raises(ValueError, match="context has k=2"):
            permutation_pvalue(table, WeightMatrix.unit(3), ctx, B=100)

    def test_depends_on_the_table_alone(self):
        # Renumbering the nodes and reversing the path reads the same
        # labels backwards: another label order and path, the same table.
        rng = np.random.default_rng(404)
        groups = GroupAssignment(rng.permutation(np.repeat([1, 2, 3], [6, 7, 8])))
        path = rng.permutation(21)
        renumber = rng.permutation(21)
        moved = GroupAssignment(groups.labels[renumber])
        moved_path = np.argsort(renumber)[path][::-1]
        table, moved_table = count_edges(path, groups), count_edges(moved_path, moved)
        assert_array_equal(moved_table, table)
        assert not np.array_equal(moved.labels, groups.labels)
        ctx = MomentContext.from_assignment(groups)
        w = WeightMatrix.default(ctx)
        assert (permutation_pvalue(moved_table, w, ctx, B=300, seed=8)
                == permutation_pvalue(table, w, ctx, B=300, seed=8))

    def test_counts_exact_ties(self):
        # Equal weights make the weighted sum 0.1 x (total between count),
        # an integer tally; summing 0.1 * count over six pairs rounds
        # differently for different count vectors with the same total.
        labels = np.repeat([1, 2, 3, 4], 6)
        groups = GroupAssignment(labels[np.random.default_rng(2).permutation(24)])
        path = np.arange(24)
        w = WeightMatrix(np.full((4, 4), 0.1))
        B, seed = 400, 9
        iu, ju = np.triu_indices(4, 1)

        def between(arrangement):
            return int(count_edges(path, GroupAssignment(arrangement))[iu, ju].sum())

        observed = between(groups.labels)
        rng = np.random.default_rng(seed)
        totals = np.array([between(labels[rng.permutation(24)]) for _ in range(B)])
        ties = int((totals == observed).sum())
        assert ties > 0
        expected = (1 + int((totals <= observed).sum())) / (B + 1)
        ctx = MomentContext.from_assignment(groups)
        table = count_edges(path, groups)
        assert permutation_pvalue(table, w, ctx, B=B, seed=seed)["weighted_sum"] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        drawn=labelled_tables(max_k=4, max_size=8),
        path_seed=st.integers(0, 2**32 - 1),
        weight_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        B=st.integers(100, 160),
    )
    def test_batched_equals_replicate_loop(self, drawn, path_seed, weight_seed, seed, B):
        sizes, _ = drawn
        k, N = len(sizes), sum(sizes)
        labels = np.repeat(np.arange(1, k + 1), sizes)
        groups = GroupAssignment(labels[np.random.default_rng(path_seed).permutation(N)])
        path = np.random.default_rng(path_seed + 1).permutation(N)
        table = count_edges(path, groups)
        ctx = MomentContext(sizes)
        grid = np.random.default_rng(weight_seed).choice([0.0, 0.3, 1.0, 2.7], size=(k, k))
        grid = np.triu(grid, 1) + np.triu(grid, 1).T
        grid[0, 1] = grid[1, 0] = 1.0  # at least one positive weight
        w = WeightMatrix(grid)
        expected = {
            statistic: looped_permutation_pvalue(table, statistic, w, ctx, B, seed)
            for statistic in ("weighted_sum", "minimum")
        }
        assert permutation_pvalue(table, w, ctx, B, seed) == expected
        for cells in (1, 7 * N):  # one replicate per batch, then several
            with mock.patch.object(inference, "_PERM_CHUNK_CELLS", cells):
                assert permutation_pvalue(table, w, ctx, B, seed) == expected
