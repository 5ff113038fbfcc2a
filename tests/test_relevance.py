"""Tests for between-sample relevance z-scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relevance_kit.counts import GroupAssignment, count_edges
from relevance_kit.moments import MomentContext, enumerate_null_moments
from relevance_kit.relevance import combined_z_score, relevance_report, z_score


def table_of(entries, k):
    t = np.zeros((k, k))
    for (m, l), v in entries.items():
        t[m - 1, l - 1] = t[l - 1, m - 1] = v
    return t


class TestZScore:
    def test_hand_computed_two_group_case(self):
        # sizes (2,2): count 1 sits one-and-a-bit null sds below the mean of 2
        ctx = MomentContext(np.array([2, 2]))
        z = z_score(1, 2, table_of({(1, 2): 1}, 2), ctx)
        assert z == pytest.approx(-((3.0 / 2.0) ** 0.5), rel=1e-12)

    def test_matches_enumerated_moments(self):
        sizes = (2, 3)
        ga = GroupAssignment(np.repeat([1, 2], sizes))
        enum = enumerate_null_moments(ga)
        ctx = MomentContext.from_assignment(ga)
        sd = enum.cov_of((1, 2), (1, 2)) ** 0.5
        for count in (1, 2, 3, 4):
            expected = (count - enum.mean_of(1, 2)) / sd
            got = z_score(1, 2, table_of({(1, 2): count}, 2), ctx)
            assert_allclose(got, expected, rtol=1e-10)

    def test_symmetric_in_group_order(self):
        ctx = MomentContext(np.array([4, 5, 6]))
        t = table_of({(1, 2): 3, (1, 3): 5, (2, 3): 4}, 3)
        assert z_score(2, 3, t, ctx) == z_score(3, 2, t, ctx)

    def test_rejects_equal_ids(self):
        ctx = MomentContext(np.array([4, 5]))
        with pytest.raises(ValueError, match="distinct group ids"):
            z_score(1, 1, np.zeros((2, 2)), ctx)

    def test_rejects_wrong_table_shape(self):
        ctx = MomentContext(np.array([4, 5]))
        with pytest.raises(ValueError, match="does not match k=2"):
            z_score(1, 2, np.zeros((3, 3)), ctx)

    def test_rejects_zero_variance(self):
        ctx = MomentContext(np.array([1, 1]))
        with pytest.raises(ValueError, match="z-score undefined"):
            z_score(1, 2, np.zeros((2, 2)), ctx)


class TestCombinedZScore:
    @pytest.fixture
    def three_group_walk(self):
        rng = np.random.default_rng(7171)
        groups = GroupAssignment(np.repeat([1, 2, 3], [5, 6, 7]))
        return rng.permutation(18), groups

    def test_matches_explicit_relabeling(self, three_group_walk):
        """Merging {2,3} into one pseudo-group must equal relabeling them."""
        path, groups = three_group_walk
        ctx = MomentContext.from_assignment(groups)
        signed, _ = combined_z_score([1], [2, 3], count_edges(path, groups), ctx)

        merged = GroupAssignment(np.where(groups.labels == 1, 1, 2))
        merged_ctx = MomentContext.from_assignment(merged)
        expected = z_score(1, 2, count_edges(path, merged), merged_ctx)
        assert_allclose(signed, expected, rtol=1e-12)

    def test_returns_signed_and_absolute(self, three_group_walk):
        path, groups = three_group_walk
        ctx = MomentContext.from_assignment(groups)
        signed, magnitude = combined_z_score([1, 3], [2], count_edges(path, groups), ctx)
        assert magnitude == abs(signed)

    def test_order_of_subsets_is_immaterial(self, three_group_walk):
        path, groups = three_group_walk
        ctx = MomentContext.from_assignment(groups)
        a = combined_z_score([1], [2, 3], count_edges(path, groups), ctx)
        b = combined_z_score([2, 3], [1], count_edges(path, groups), ctx)
        assert a == b

    def test_rejects_overlapping_subsets(self, three_group_walk):
        path, groups = three_group_walk
        ctx = MomentContext.from_assignment(groups)
        with pytest.raises(ValueError, match="disjoint"):
            combined_z_score([1, 2], [2, 3], count_edges(path, groups), ctx)

    def test_rejects_empty_subset(self, three_group_walk):
        path, groups = three_group_walk
        ctx = MomentContext.from_assignment(groups)
        with pytest.raises(ValueError, match="non-empty"):
            combined_z_score([], [1], count_edges(path, groups), ctx)

    def test_rejects_table_of_wrong_shape(self, three_group_walk):
        _, groups = three_group_walk
        with pytest.raises(ValueError, match="does not match k=3"):
            combined_z_score([1], [2], np.zeros((2, 2)), MomentContext.from_assignment(groups))

    def test_rejects_out_of_range_id(self, three_group_walk):
        path, groups = three_group_walk
        ctx = MomentContext.from_assignment(groups)
        with pytest.raises(ValueError, match="outside 1..3"):
            combined_z_score([1], [4], count_edges(path, groups), ctx)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_a_merged_context_bit_for_bit(self, data):
        """The z reads the moments the merged design [union 1, union 2, rest] has for its first pair."""
        sizes = data.draw(st.lists(st.integers(1, 10 ** 5), min_size=2, max_size=8))
        k = len(sizes)
        groups = data.draw(st.permutations(range(1, k + 1)))
        n1 = data.draw(st.integers(1, k - 1))
        n2 = data.draw(st.integers(1, k - n1))
        a1, a2 = groups[:n1], groups[n1:n1 + n2]
        table = np.array(data.draw(st.lists(st.integers(0, 10 ** 5), min_size=k * k, max_size=k * k)),
                         dtype=float).reshape(k, k)
        table += table.T
        na, nb = sum(sizes[g - 1] for g in a1), sum(sizes[g - 1] for g in a2)
        rest = sum(sizes) - na - nb
        merged = MomentContext([na, nb, rest] if rest else [na, nb])
        count = table[np.ix_([g - 1 for g in a1], [g - 1 for g in a2])].sum()
        if merged.var[0, 1] == 0.0:  # sizes [1, 1]: the count is constant
            with pytest.raises(ValueError, match="merged comparison is zero"):
                combined_z_score(a1, a2, table, MomentContext(sizes))
            return
        signed, _ = combined_z_score(a1, a2, table, MomentContext(sizes))
        assert signed == (count - merged.mean[0, 1]) / np.sqrt(merged.var[0, 1])


class TestRelevanceReport:
    def test_grid_matches_direct_calls(self):
        rng = np.random.default_rng(2424)
        groups = GroupAssignment(np.repeat([1, 2, 3, 4], [4, 5, 6, 5]))
        path = rng.permutation(20)
        report = relevance_report(path, groups)
        ctx = MomentContext.from_assignment(groups)
        table = count_edges(path, groups)
        for m in range(1, 5):
            assert np.isnan(report.z_of(m, m))
            for l in range(m + 1, 5):
                assert report.z_of(m, l) == pytest.approx(z_score(m, l, table, ctx))
                assert report.z_of(l, m) == report.z_of(m, l)

    def test_combined_entries_use_sorted_keys(self):
        rng = np.random.default_rng(2525)
        groups = GroupAssignment(np.repeat([1, 2, 3], [5, 5, 5]))
        path = rng.permutation(15)
        report = relevance_report(path, groups, combined=[([3, 2], [1])])
        assert list(report.combined) == [((2, 3), (1,))]
        ctx = MomentContext.from_assignment(groups)
        signed, _ = combined_z_score([2, 3], [1], count_edges(path, groups), ctx)
        assert report.combined[((2, 3), (1,))] == signed

    def test_grid_is_read_only(self):
        groups = GroupAssignment(np.repeat([1, 2], [3, 3]))
        report = relevance_report(np.arange(6), groups)
        with pytest.raises(ValueError):
            report.z[0, 1] = 0.0

    def test_separation_and_mixing_have_opposite_signs(self):
        # groups 1 and 2 interleave along the walk; group 3 trails alone
        labels = np.concatenate([np.tile([1, 2], 6), np.full(6, 3)])
        groups = GroupAssignment(labels)
        report = relevance_report(np.arange(18), groups)
        assert report.z_of(1, 2) > 2.0
        assert report.z_of(1, 3) < 0.0
        assert report.z_of(2, 3) < 0.0


class TestNullStandardization:
    def test_z_scores_center_and_scale_under_shuffling(self):
        """Across random arrangements each z should look standardized."""
        rng = np.random.default_rng(909)
        sizes = (15, 20, 25)
        base = np.repeat([1, 2, 3], sizes)
        path = rng.permutation(60)
        ctx = MomentContext(np.array(sizes))
        zs = np.empty((2000, 3))
        for r in range(2000):
            table = count_edges(path, GroupAssignment(rng.permutation(base)))
            zs[r] = [
                z_score(1, 2, table, ctx),
                z_score(1, 3, table, ctx),
                z_score(2, 3, table, ctx),
            ]
        assert np.all(np.abs(zs.mean(axis=0)) < 0.1)
        assert np.all((zs.std(axis=0) > 0.85) & (zs.std(axis=0) < 1.15))
