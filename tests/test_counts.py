"""Tests for group assignments and between-sample edge counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from relevance_kit.counts import GroupAssignment, count_between_unions, count_edges, tabulate


def manual_table(path, labels):
    """Edge-count table built with a plain Python loop, independent of ``tabulate``."""
    k = max(labels)
    T = np.zeros((k, k), dtype=np.int64)
    for a, b in zip(path[:-1], path[1:]):
        ga, gb = labels[a] - 1, labels[b] - 1
        if ga == gb:
            T[ga, ga] += 1
        else:
            T[ga, gb] += 1
            T[gb, ga] += 1
    return T


@pytest.fixture
def eight_nodes():
    """Four groups of two nodes each, with a fixed hand-checked path.

    Walking the path 1->2->3->0->4->6->7->5 crosses groups as
    (1,2) (2,2) (2,1) (1,3) (3,4) (4,4) (4,3).
    """
    assignment = GroupAssignment(np.array([1, 1, 2, 2, 3, 3, 4, 4]))
    path = np.array([1, 2, 3, 0, 4, 6, 7, 5])
    return assignment, path


class TestGroupAssignment:
    def test_sizes_from_labels(self):
        ga = GroupAssignment([1, 2, 2, 3, 3, 3])
        assert ga.n_groups == 3
        assert ga.n_total == 6
        assert_array_equal(ga.sizes, [1, 2, 3])

    def test_labels_are_read_only(self):
        ga = GroupAssignment([1, 1, 2])
        with pytest.raises(ValueError):
            ga.labels[0] = 2

    def test_rejects_sparse_ids(self):
        with pytest.raises(ValueError, match=r"missing \[2\]"):
            GroupAssignment([1, 3, 3])

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(ValueError, match=">= 1"):
            GroupAssignment([0, 1, 1])

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError, match="at least 2"):
            GroupAssignment([1])

    def test_from_labels_first_appearance_order(self):
        ga = GroupAssignment.from_labels(["b", "a", "b", "c"])
        assert_array_equal(ga.labels, [1, 2, 1, 3])
        assert_array_equal(ga.sizes, [2, 1, 1])

    def test_from_labels_accepts_mixed_types(self):
        ga = GroupAssignment.from_labels([10, "x", 10, "x", 7])
        assert_array_equal(ga.labels, [1, 2, 1, 2, 3])


class TestCountEdges:
    def test_hand_worked_eight_node_table(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = expected[1, 0] = 2
        expected[0, 2] = expected[2, 0] = 1
        expected[2, 3] = expected[3, 2] = 2
        expected[1, 1] = 1
        expected[3, 3] = 1
        assert_array_equal(table, expected)

    def test_table_is_symmetric_int64_read_only(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        assert table.dtype == np.int64
        assert_array_equal(table, table.T)
        with pytest.raises(ValueError):
            table[0, 0] = 5

    def test_entries_sum_to_edge_count(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        iu = np.triu_indices(4)
        assert table[iu].sum() == assignment.n_total - 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_plain_loop(self, seed, k):
        rng = np.random.default_rng((9000, seed, k))
        sizes = rng.integers(1, 8, size=k)
        labels = np.repeat(np.arange(1, k + 1), sizes)
        rng.shuffle(labels)
        assignment = GroupAssignment(labels)
        path = rng.permutation(assignment.n_total)
        assert_array_equal(count_edges(path, assignment), manual_table(path, labels))

    def test_two_groups_alternating(self):
        assignment = GroupAssignment([1, 2, 1, 2])
        table = count_edges([0, 1, 2, 3], assignment)
        assert table[0, 1] == 3
        assert table[0, 0] == 0 and table[1, 1] == 0

    def test_rejects_path_of_wrong_length(self):
        assignment = GroupAssignment([1, 1, 2, 2])
        with pytest.raises(ValueError, match="length 4"):
            count_edges([0, 1, 2], assignment)


@st.composite
def labellings_along_a_path(draw):
    """A path, a batch of labellings of its nodes (k <= 12, groups down to one node), and k."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12).filter(lambda s: sum(s) >= 2))
    base = np.repeat(np.arange(1, len(sizes) + 1), sizes).tolist()
    path = np.array(draw(st.permutations(range(len(base)))))
    n = draw(st.integers(1, 5))
    rows = np.array([draw(st.permutations(base)) for _ in range(n)])
    return path, rows, len(sizes)


class TestTabulate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(drawn=labellings_along_a_path())
    def test_batch_matches_per_edge_loop(self, drawn):
        path, rows, k = drawn
        tables = tabulate(rows[:, path], k)
        assert tables.shape == (rows.shape[0], k, k)
        assert tables.dtype == np.int64
        for labels, table in zip(rows, tables):
            assert_array_equal(table, table.T)
            assert (table >= 0).all()
            assert table[np.triu_indices(k)].sum() == path.size - 1
            assert_array_equal(table, manual_table(path, labels))
            assert_array_equal(count_edges(path, GroupAssignment(labels)), table)


class TestCountBetweenUnions:
    def test_hand_worked_union_count(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        # only the group-1/group-3 edge joins {1,2} to {3,4}
        assert count_between_unions(table, [1, 2], [3, 4]) == 1
        assert count_between_unions(table, [3, 4], [1, 2]) == 1

    def test_single_groups_reduce_to_table_entry(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        for m in range(1, 5):
            for l in range(1, 5):
                if m != l:
                    assert count_between_unions(table, [m], [l]) == table[m - 1, l - 1]

    def test_duplicate_ids_within_a_union_collapse(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        assert count_between_unions(table, [1, 1, 2], [3, 4]) == 1

    def test_rejects_overlapping_unions(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        with pytest.raises(ValueError, match="disjoint"):
            count_between_unions(table, [1, 2], [2, 3])

    def test_rejects_empty_union(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        with pytest.raises(ValueError, match="non-empty"):
            count_between_unions(table, [], [1])

    def test_rejects_out_of_range_id(self, eight_nodes):
        assignment, path = eight_nodes
        table = count_edges(path, assignment)
        with pytest.raises(ValueError, match="outside 1..4"):
            count_between_unions(table, [1], [5])

    @pytest.mark.parametrize("seed", [11, 12])
    def test_matches_pair_sum(self, seed):
        rng = np.random.default_rng(seed)
        labels = np.repeat([1, 2, 3, 4, 5], [3, 4, 2, 5, 3])
        rng.shuffle(labels)
        assignment = GroupAssignment(labels)
        path = rng.permutation(assignment.n_total)
        table = count_edges(path, assignment)
        a, b = [1, 4], [2, 3, 5]
        expected = sum(int(table[m - 1, l - 1]) for m in a for l in b)
        assert count_between_unions(table, a, b) == expected
