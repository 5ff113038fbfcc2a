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
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri
from scipy.stats import norm

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
    """The level-alpha root found by Brent's method from an analytic bracket."""

    def test_cold_root_makes_few_mvn_calls(self, monkeypatch):
        ctx = MomentContext([50] * 10)
        w = WeightMatrix.default(ctx)
        calls = []
        engine = inference.mvn_upper_tail

        def counting(*args, **kwargs):
            calls.append(1)
            return engine(*args, **kwargs)

        inference._CRIT_CACHE.clear()
        monkeypatch.setattr(inference, "mvn_upper_tail", counting)
        minimum_test(np.round(ctx.mean), w, ctx)
        assert len(calls) <= 7  # one for the p-value, six for the root

    @pytest.mark.parametrize(
        "sizes, bisected, alpha",
        [
            ([50] * 10, -3.0516300, 0.05),
            ([20, 30, 40], -2.1259151, 0.05),
            ([5, 7, 100, 3], -2.3852584, 0.05),
            # roots of the linear-scale tail function at alpha 0.01
            ([50] * 10, -3.5107415, 0.01),
            ([20, 30, 40], -2.7128111, 0.01),
            ([5, 7, 100, 3], -2.9335378, 0.01),
        ],
    )
    def test_matches_bisection_root(self, sizes, bisected, alpha):
        ctx = MomentContext(sizes)
        w = WeightMatrix.default(ctx)
        res = minimum_test(np.round(ctx.mean), w, ctx, alpha=alpha)
        assert res.critical_value == pytest.approx(bisected, abs=1e-5)

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
        monkeypatch.setattr(inference, "mvn_upper_tail", lambda s, t, **kw: 1.0)
        with pytest.raises(FloatingPointError, match="from above"):
            minimum_test(np.round(ctx.mean), WeightMatrix.default(ctx), ctx)


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


def looped_permutation_pvalue(path, groups, statistic, w, B, seed):
    """One GroupAssignment and count table per rng.permutation draw."""
    ctx = MomentContext.from_assignment(groups)

    def stat_of(assignment):
        table = count_edges(path, assignment)
        if statistic == "weighted_sum":
            return weighted_sum_statistic(table, w)
        return minimum_statistic(table, w, ctx)

    observed = stat_of(groups)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(B):
        stat = stat_of(GroupAssignment(groups.labels[rng.permutation(groups.n_total)]))
        hits += stat <= observed + 100 * np.finfo(float).eps * abs(observed)
    return (1 + hits) / (B + 1)


class TestPermutationPvalue:
    @pytest.fixture
    def separated(self):
        """Twenty nodes walked group-1 block then group-2 block."""
        groups = GroupAssignment(np.repeat([1, 2], [10, 10]))
        return np.arange(20), groups

    def test_separated_data_gives_small_p(self, separated):
        path, groups = separated
        ctx = MomentContext.from_assignment(groups)
        w = WeightMatrix.default(ctx)
        p = permutation_pvalue(path, groups, w, B=199, seed=3)
        assert set(p) == {"weighted_sum", "minimum"}
        for stat in p:
            assert p[stat] <= 0.05

    def test_deterministic_given_seed(self, separated):
        path, groups = separated
        w = WeightMatrix.default(MomentContext.from_assignment(groups))
        p1 = permutation_pvalue(path, groups, w, B=150, seed=11)
        p2 = permutation_pvalue(path, groups, w, B=150, seed=11)
        assert p1 == p2

    def test_bounded_away_from_zero(self, separated):
        path, groups = separated
        w = WeightMatrix.default(MomentContext.from_assignment(groups))
        for p in permutation_pvalue(path, groups, w, B=100, seed=0).values():
            assert 1.0 / 101.0 <= p <= 1.0

    def test_interleaved_data_gives_large_p(self):
        # alternating labels cross between groups as often as possible
        groups = GroupAssignment(np.tile([1, 2], 10))
        w = WeightMatrix.default(MomentContext.from_assignment(groups))
        p = permutation_pvalue(np.arange(20), groups, w, B=199, seed=5)["weighted_sum"]
        assert p > 0.5

    def test_rejects_tiny_replicate_count(self, separated):
        path, groups = separated
        w = WeightMatrix.default(MomentContext.from_assignment(groups))
        with pytest.raises(ValueError, match="at least 100"):
            permutation_pvalue(path, groups, w, B=50)

    def test_counts_exact_ties(self):
        # Equal weights make the weighted sum 0.1 x (total between count),
        # an integer tally; summing 0.1 * count over six pairs rounds
        # differently for different count vectors with the same total.
        groups = GroupAssignment(np.repeat([1, 2, 3, 4], 6)[np.random.default_rng(2).permutation(24)])
        path = np.arange(24)
        w = WeightMatrix(np.full((4, 4), 0.1))
        B, seed = 400, 9
        iu, ju = np.triu_indices(4, 1)

        def between(labels):
            return int(count_edges(path, GroupAssignment(labels))[iu, ju].sum())

        observed = between(groups.labels)
        rng = np.random.default_rng(seed)
        totals = np.array([between(groups.labels[rng.permutation(24)]) for _ in range(B)])
        ties = int((totals == observed).sum())
        assert ties > 0
        expected = (1 + int((totals <= observed).sum())) / (B + 1)
        assert permutation_pvalue(path, groups, w, B=B, seed=seed)["weighted_sum"] == expected

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
        grid = np.random.default_rng(weight_seed).choice([0.0, 0.3, 1.0, 2.7], size=(k, k))
        grid = np.triu(grid, 1) + np.triu(grid, 1).T
        grid[0, 1] = grid[1, 0] = 1.0  # at least one positive weight
        w = WeightMatrix(grid)
        expected = {
            statistic: looped_permutation_pvalue(path, groups, statistic, w, B, seed)
            for statistic in ("weighted_sum", "minimum")
        }
        assert permutation_pvalue(path, groups, w, B, seed) == expected
        for cells in (1, 7 * N):  # one replicate per batch, then several
            with mock.patch.object(inference, "_PERM_CHUNK_CELLS", cells):
                assert permutation_pvalue(path, groups, w, B, seed) == expected
