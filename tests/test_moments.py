"""Tests for closed-form null moments against independent oracles.

Three oracle routes back the closed forms: exhaustive enumeration of
label arrangements (exact, N <= 8), the classical run-count distribution
for binary sequences (exact, any size, k = 2 only), and plain Monte
Carlo shuffling (approximate, any size).  Beyond enumeration range,
property tests tie every table to the merged-group identities.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relevance_kit.counts import GroupAssignment
from relevance_kit.moments import (
    EnumeratedMoments,
    MomentContext,
    build_sigma,
    enumerate_null_moments,
)


def labels_for(sizes):
    return np.repeat(np.arange(1, len(sizes) + 1), sizes)


def pair_list(k):
    """1-based group pairs in the order of build_sigma's rows."""
    return [(i + 1, j + 1) for i, j in zip(*np.triu_indices(k, 1))]


def merged(sizes, a1, a2):
    """Context of the pseudo-groups [sum a1, sum a2, rest] (rest dropped if empty)."""
    na = sum(sizes[g - 1] for g in a1)
    nb = sum(sizes[g - 1] for g in a2)
    rest = sum(sizes) - na - nb
    return MomentContext([na, nb, rest] if rest else [na, nb])


def run_count_distribution(n1, n2):
    """Exact pmf of the number of runs in a random two-letter arrangement.

    With r = 2m the two letters alternate in m blocks each; with
    r = 2m + 1 one letter contributes m + 1 blocks.  Standard counting
    argument over block compositions.
    """
    N = n1 + n2
    denom = comb(N, n1)
    pmf = {}
    for r in range(2, 2 * min(n1, n2) + 2):
        if r % 2 == 0:
            m = r // 2
            num = 2 * comb(n1 - 1, m - 1) * comb(n2 - 1, m - 1)
        else:
            m = (r - 1) // 2
            num = comb(n1 - 1, m - 1) * comb(n2 - 1, m) + comb(n1 - 1, m) * comb(n2 - 1, m - 1)
        pmf[r] = num / denom
    return pmf


class TestSizeValidation:
    def test_rejects_zero_group(self):
        with pytest.raises(ValueError, match=">= 1"):
            MomentContext([0, 2, 2])

    def test_rejects_degenerate_total(self):
        with pytest.raises(ValueError, match=">= 2"):
            MomentContext([1])

    @pytest.mark.parametrize("sizes", [[2.5, 3.9], [4.0, np.nan], [np.inf, 2.0]])
    def test_rejects_non_integral_sizes(self, sizes):
        with pytest.raises(ValueError, match="integers"):
            MomentContext(sizes)

    def test_accepts_integral_float_sizes(self):
        assert MomentContext([2.0, 3.0]).sizes.tolist() == [2, 3]

    def test_context_requires_nonempty_sizes(self):
        with pytest.raises(ValueError, match="non-empty"):
            MomentContext(np.array([], dtype=np.int64))

    def test_context_from_assignment(self):
        ctx = MomentContext.from_assignment(GroupAssignment([1, 2, 2, 3, 3, 3]))
        assert ctx.n_groups == 3
        assert ctx.total == 6
        assert list(ctx.sizes) == [1, 2, 3]

    def test_tables_are_read_only_and_symmetric(self):
        ctx = MomentContext([3, 9, 4, 7])
        for table in (ctx.mean, ctx.var):
            assert np.array_equal(table, table.T)
            with pytest.raises(ValueError):
                table[0, 1] = 0.0

    def test_tables_equal_scalar_closed_forms(self):
        """The tables keep the scalar formulas' expression order, so they agree bit for bit."""
        for sizes in [(4, 5, 6), (1, 2, 3, 97), (13, 400, 250, 1, 7)]:
            ctx = MomentContext(sizes)
            N = sum(sizes)
            NN1 = N * (N - 1.0)
            for i, n1 in enumerate(sizes):
                assert ctx.mean[i, i] == n1 * (n1 - 1.0) / N
                for j in range(i + 1, len(sizes)):
                    n2 = sizes[j]
                    m = 2.0 * n1 * n2 / N
                    second = (
                        2.0 * n1 * n2 / N
                        + 2.0 * n1 * n2 * (n1 + n2 - 2.0) / NN1
                        + 4.0 * n1 * (n1 - 1.0) * n2 * (n2 - 1.0) / NN1
                    )
                    assert ctx.mean[i, j] == ctx.mean[j, i] == m
                    assert ctx.var[i, j] == ctx.var[j, i] == max(second - m * m, 0.0)

    def test_pair_mean_is_the_upper_triangle_built_once(self):
        ctx = MomentContext([3, 9, 4, 7])
        iu, ju = np.triu_indices(4, 1)
        assert np.array_equal(ctx.pair_mean, ctx.mean[iu, ju])
        assert ctx.pair_mean is ctx.pair_mean
        with pytest.raises(ValueError):
            ctx.pair_mean[0] = 0.0

    def test_pair_var_names_first_zero_pair(self):
        ctx = MomentContext([1, 1])
        with pytest.raises(ValueError, match=r"pair \(1,2\) is zero; z-score undefined"):
            ctx.pair_var("z-score undefined")


class TestEnumerationOracle:
    """Self-checks of the enumeration before it is used as an oracle."""

    def test_two_plus_two_arrangements_by_hand(self):
        # The six arrangements of AABB give between counts 1,3,2,2,3,1
        # and within-A counts 1,0,0,1,0,1.
        enum = enumerate_null_moments(GroupAssignment([1, 1, 2, 2]))
        assert enum.n_arrangements == 6
        assert enum.mean_of(1, 2) == pytest.approx(12 / 6)
        assert enum.product_moment((1, 2), (1, 2)) == pytest.approx(28 / 6)
        assert enum.mean_of(1, 1) == pytest.approx(3 / 6)
        assert enum.product_moment((1, 1), (1, 1)) == pytest.approx(3 / 6)
        assert enum.product_moment((1, 1), (2, 2)) == pytest.approx(2 / 6)

    def test_arrangement_counts_are_multinomial(self):
        assert enumerate_null_moments(GroupAssignment([1, 2, 3])).n_arrangements == 6
        assert enumerate_null_moments(GroupAssignment(labels_for([2, 3]))).n_arrangements == 10
        assert enumerate_null_moments(GroupAssignment(labels_for([2, 2, 2]))).n_arrangements == 90

    def test_means_account_for_every_edge(self):
        enum = enumerate_null_moments(GroupAssignment(labels_for([1, 2, 3])))
        iu = np.triu_indices(3)
        assert enum.mean[iu].sum() == pytest.approx(6 - 1)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="N <= 8"):
            enumerate_null_moments(GroupAssignment(labels_for([4, 5])))

    def test_returns_frozen_tables(self):
        enum = enumerate_null_moments(GroupAssignment([1, 1, 2, 2]))
        assert isinstance(enum, EnumeratedMoments)
        with pytest.raises(ValueError):
            enum.mean[0, 0] = 1.0


SIZE_CONFIGS = [
    (2, 2),
    (1, 3),
    (2, 3),
    (3, 3),
    (1, 1, 2),
    (2, 2, 2),
    (1, 2, 3),
    (1, 1, 1, 1),
    (1, 1, 2, 3),
    (2, 2, 2, 2),
]


class TestClosedFormsAgainstEnumeration:
    """Raw second and cross moments are checked through the variances and
    covariances they determine."""

    @pytest.mark.parametrize("sizes", SIZE_CONFIGS, ids=str)
    def test_means_and_seconds(self, sizes):
        enum = enumerate_null_moments(GroupAssignment(labels_for(sizes)))
        ctx = MomentContext(np.array(sizes))
        k = len(sizes)
        for m in range(1, k + 1):
            for l in range(1, k + 1):
                assert_allclose(ctx.mean[m - 1, l - 1], enum.mean_of(m, l), atol=1e-12)
                assert_allclose(ctx.var[m - 1, l - 1], enum.cov_of((m, l), (m, l)), atol=1e-12)

    @pytest.mark.parametrize("sizes", [s for s in SIZE_CONFIGS if len(s) >= 3], ids=str)
    def test_shared_group_cross_moments(self, sizes):
        enum = enumerate_null_moments(GroupAssignment(labels_for(sizes)))
        sigma = build_sigma(MomentContext(np.array(sizes)))
        pairs = pair_list(len(sizes))
        checked = 0
        for a, p1 in enumerate(pairs):
            for b, p2 in enumerate(pairs):
                if len(set(p1) & set(p2)) == 1:
                    assert_allclose(sigma[a, b], enum.cov_of(p1, p2), atol=1e-12)
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("sizes", [s for s in SIZE_CONFIGS if len(s) == 4], ids=str)
    def test_disjoint_cross_moments(self, sizes):
        enum = enumerate_null_moments(GroupAssignment(labels_for(sizes)))
        sigma = build_sigma(MomentContext(np.array(sizes)))
        pairs = pair_list(4)
        for p1, p2 in [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]:
            got = sigma[pairs.index(p1), pairs.index(p2)]
            assert_allclose(got, enum.cov_of(p1, p2), atol=1e-12)

    @pytest.mark.parametrize("sizes", SIZE_CONFIGS, ids=str)
    def test_within_pair_cross_moments(self, sizes):
        # Within and between counts add up to N - 1 on every arrangement, so
        # the variance of the total within count, which the enumerated
        # within-pair cross moments give, equals 1' Sigma 1.
        enum = enumerate_null_moments(GroupAssignment(labels_for(sizes)))
        k = len(sizes)
        var_within_total = sum(
            enum.cov_of((m, m), (l, l)) for m in range(1, k + 1) for l in range(1, k + 1)
        )
        sigma = build_sigma(MomentContext(np.array(sizes)))
        assert_allclose(sigma.sum(), var_within_total, atol=1e-12)

    @pytest.mark.parametrize("sizes", SIZE_CONFIGS, ids=str)
    def test_cov_counts_dispatch(self, sizes):
        """Every Sigma entry: pairs sharing two, one or no groups."""
        enum = enumerate_null_moments(GroupAssignment(labels_for(sizes)))
        sigma = build_sigma(MomentContext(np.array(sizes)))
        pairs = pair_list(len(sizes))
        for a, p1 in enumerate(pairs):
            for b, p2 in enumerate(pairs):
                assert_allclose(sigma[a, b], enum.cov_of(p1, p2), atol=1e-12)


class TestRunCountOracle:
    """k = 2 closed forms against the exact run-count distribution.

    For two groups the between count equals runs - 1, giving an exact
    reference at sizes far beyond enumeration range.
    """

    @pytest.mark.parametrize("n1,n2", [(1, 7), (5, 13), (20, 40), (50, 50), (3, 97)])
    def test_pmf_sums_to_one(self, n1, n2):
        pmf = run_count_distribution(n1, n2)
        assert_allclose(sum(pmf.values()), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n1,n2", [(1, 7), (5, 13), (20, 40), (50, 50), (3, 97)])
    def test_mean_and_variance(self, n1, n2):
        pmf = run_count_distribution(n1, n2)
        N = n1 + n2
        mean = sum((r - 1) * p for r, p in pmf.items())
        second = sum((r - 1) ** 2 * p for r, p in pmf.items())
        ctx = MomentContext([n1, n2])
        assert_allclose(ctx.mean[0, 1], mean, rtol=1e-10)
        assert_allclose(ctx.var[0, 1], second - mean**2, rtol=1e-9, atol=1e-12)


class TestMonteCarloSpotCheck:
    def test_between_count_moments_at_20_40(self):
        rng = np.random.default_rng(4242)
        n1, n2, reps = 20, 40, 5000
        base = labels_for([n1, n2])
        order = np.argsort(rng.random((reps, n1 + n2)), axis=1)
        L = base[order]
        counts = (L[:, :-1] != L[:, 1:]).sum(axis=1)
        mean_hat = counts.mean()
        se = counts.std(ddof=1) / np.sqrt(reps)
        ctx = MomentContext([n1, n2])
        assert abs(mean_hat - ctx.mean[0, 1]) < 4 * se
        assert_allclose(counts.var(ddof=1), ctx.var[0, 1], rtol=0.1)


class TestMergingIdentities:
    """Counts add over disjoint unions, which ties the moments together."""

    @pytest.mark.parametrize("n1,n2,n3,N", [(2, 3, 4, 12), (5, 5, 5, 30), (1, 9, 2, 15)])
    def test_merged_mean_is_additive(self, n1, n2, n3, N):
        sizes = (n1, n2, n3, N - n1 - n2 - n3)
        ctx = MomentContext(sizes)
        assert_allclose(
            merged(sizes, [1, 3], [2]).mean[0, 1], ctx.mean[0, 1] + ctx.mean[2, 1], rtol=1e-12
        )

    @pytest.mark.parametrize("n1,n2,n3,N", [(2, 3, 4, 12), (5, 5, 5, 30), (1, 9, 2, 15), (7, 11, 3, 40)])
    def test_merged_second_moment_expands(self, n1, n2, n3, N):
        # Var S(G1+G3, G2) = Var S(G1,G2) + Var S(G3,G2) + 2 Cov(S(G1,G2), S(G2,G3))
        sizes = (n1, n2, n3, N - n1 - n2 - n3)
        ctx = MomentContext(sizes)
        sigma = build_sigma(ctx)
        pairs = pair_list(4)
        cov = sigma[pairs.index((1, 2)), pairs.index((2, 3))]
        lhs = merged(sizes, [1, 3], [2]).var[0, 1]
        assert_allclose(lhs, ctx.var[0, 1] + ctx.var[2, 1] + 2.0 * cov, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_merged_moments_beyond_enumeration_range(self, data):
        sizes = data.draw(st.lists(st.integers(1, 500), min_size=2, max_size=12))
        k = len(sizes)
        groups = data.draw(st.permutations(range(1, k + 1)))
        n1 = data.draw(st.integers(1, k - 1))
        n2 = data.draw(st.integers(1, k - n1))
        a1, a2 = sorted(groups[:n1]), sorted(groups[n1:n1 + n2])
        ctx = MomentContext(sizes)
        sigma = build_sigma(ctx)
        assert np.array_equal(sigma, sigma.T)
        target = merged(sizes, a1, a2)
        block = ctx.mean[np.ix_([g - 1 for g in a1], [g - 1 for g in a2])].sum()
        assert_allclose(block, target.mean[0, 1], rtol=1e-12)
        cross = [
            p for p, (i, j) in enumerate(pair_list(k))
            if (i in a1 and j in a2) or (i in a2 and j in a1)
        ]
        assert_allclose(sigma[np.ix_(cross, cross)].sum(), target.var[0, 1], rtol=1e-9)


class TestCovCounts:
    def test_all_singletons_disjoint_value(self):
        # N=4 with unit groups: E{S12 S34} = 1/3 and each mean is 1/2
        sigma = build_sigma(MomentContext(np.array([1, 1, 1, 1])))
        assert_allclose(sigma[0, 5], 1 / 3 - 1 / 4, rtol=1e-12)

    def test_symmetric_in_its_arguments(self):
        sigma = build_sigma(MomentContext(np.array([3, 4, 5, 6])))
        assert np.array_equal(sigma, sigma.T)

    def test_identical_pairs_give_variance(self):
        ctx = MomentContext(np.array([8, 13]))
        assert build_sigma(ctx)[0, 0] == ctx.var[0, 1]


class TestVarianceNonnegativity:
    def test_sweep_across_scales(self):
        for N in (2, 3, 10, 100, 1000, 10_000):
            for frac in (0.01, 0.1, 0.3, 0.5, 0.7, 0.99):
                n1 = max(1, int(N * frac))
                n2 = N - n1
                if n2 < 1:
                    continue
                v = MomentContext([n1, n2]).var
                assert (v >= 0.0).all()
                assert np.isfinite(v).all()
