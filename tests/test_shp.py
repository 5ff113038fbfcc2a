"""Tests for the Hamiltonian-path heuristic and its exact oracle."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relevance_kit import cost, shp
from relevance_kit.cost import check_cost_matrix, diff_augmented_cost, gamma_cost
from relevance_kit.shp import approximate_shp, brute_force_shp, check_path, path_cost


def exhaustive_min_cost(C):
    """Minimum path cost by scanning every permutation with plain Python."""
    n = C.shape[0]
    best = float("inf")
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for a, b in zip(perm[:-1], perm[1:]):
            total += float(C[a, b])
        best = min(best, total)
    return best


def _sorted_edges(C: np.ndarray, rank: np.ndarray):
    """All unordered edges ordered by (cost, smaller rank, larger rank) of their nodes."""
    n = C.shape[0]
    iu, ju = np.triu_indices(n, 1)
    lo, hi = np.minimum(rank[iu], rank[ju]), np.maximum(rank[iu], rank[ju])
    order = np.lexsort((hi, lo, C[iu, ju]))
    return iu[order], ju[order]


def full_sort_shp(costs, seed=0) -> np.ndarray:
    """Oracle: the greedy path from one sort of all N(N-1)/2 edges, ties by the seed's node rank."""
    C = check_cost_matrix(costs)
    n = C.shape[0]
    us, vs = _sorted_edges(C, shp._node_rank(n, seed))

    parent = np.arange(n)
    degree = np.zeros(n, dtype=np.int64)
    adjacency: list[list[int]] = [[] for _ in range(n)]

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    selected = 0
    for u, v in zip(us, vs):
        if degree[u] >= 2 or degree[v] >= 2:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            continue  # would close a cycle
        parent[ru] = rv
        degree[u] += 1
        degree[v] += 1
        adjacency[u].append(v)
        adjacency[v].append(u)
        selected += 1
        if selected == n - 1:
            break

    endpoints = np.flatnonzero(degree <= 1)
    start = int(endpoints.min())
    order = np.empty(n, dtype=np.int64)
    order[0] = start
    prev = -1
    node = start
    for i in range(1, n):
        nxt = adjacency[node][0] if adjacency[node][0] != prev else adjacency[node][1]
        order[i] = nxt
        prev, node = node, nxt
    order.setflags(write=False)
    return order


def oracle_costs(kind, n, seed):
    """Cost matrices of the kinds the round-based greedy must get exactly right."""
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return random_costs(rng, n)
    if kind == "integer_ties":
        A = rng.integers(0, 4, size=(n, n)).astype(float)
        C = A + A.T
    elif kind == "duplicate_rows":
        distinct = rng.normal(size=(max(1, n // 4), 3))
        return gamma_cost(distinct[rng.integers(0, len(distinct), size=n)], gamma=1.0)
    elif kind == "all_equal":
        C = np.full((n, n), 2.5)
    else:  # "asymmetric": only the upper triangle is read
        C = rng.integers(0, 6, size=(n, n)).astype(float)
    np.fill_diagonal(C, 0.0)
    return C


def random_costs(rng, n):
    A = rng.uniform(0.1, 5.0, size=(n, n))
    C = (A + A.T) / 2.0
    np.fill_diagonal(C, 0.0)
    return C


@pytest.fixture
def rng():
    return np.random.default_rng(27182)


class TestCheckPath:
    def test_accepts_valid_permutation(self):
        p = check_path([2, 0, 1], 3)
        assert p.dtype == np.int64
        assert list(p) == [2, 0, 1]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length 4"):
            check_path([0, 1, 2], 4)

    def test_rejects_repeated_node(self):
        with pytest.raises(ValueError, match="exactly once"):
            check_path([0, 1, 1], 3)

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError, match="exactly once"):
            check_path([0, 1, 3], 3)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError, match="1-D"):
            check_path([[0, 1], [2, 3]], 4)


class TestPathCost:
    def test_hand_computed_total(self):
        C = np.array(
            [
                [0.0, 1.5, 4.0],
                [1.5, 0.0, 2.25],
                [4.0, 2.25, 0.0],
            ]
        )
        assert path_cost([2, 0, 1], C) == pytest.approx(4.0 + 1.5)
        assert path_cost([0, 1, 2], C) == pytest.approx(1.5 + 2.25)

    def test_reversal_has_same_cost(self, rng):
        C = random_costs(rng, 7)
        p = rng.permutation(7)
        assert path_cost(p, C) == pytest.approx(path_cost(p[::-1], C))

    def test_validates_path_against_matrix_size(self):
        C = np.zeros((4, 4))
        with pytest.raises(ValueError, match="length 4"):
            path_cost([0, 1, 2], C)


class TestBruteForce:
    def test_matches_exhaustive_scan(self, rng):
        # oracle: plain-Python minimum over every permutation
        for n in (3, 4, 5, 6, 7):
            C = random_costs(rng, n)
            best = brute_force_shp(C)
            assert_allclose(path_cost(best, C), exhaustive_min_cost(C), rtol=1e-12)

    def test_returns_valid_canonical_path(self, rng):
        C = random_costs(rng, 6)
        p = brute_force_shp(C)
        check_path(p, 6)
        assert p[0] < p[-1]  # canonical orientation

    def test_two_nodes(self):
        C = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert list(brute_force_shp(C)) == [0, 1]

    def test_size_guard(self):
        C = np.zeros((11, 11))
        with pytest.raises(ValueError, match="N <= 10"):
            brute_force_shp(C)

    def test_tie_break_is_lexicographic(self):
        # every path has identical cost, so the first half-permutation wins
        C = np.ones((4, 4)) - np.eye(4)
        assert list(brute_force_shp(C)) == [0, 1, 2, 3]


class TestApproximateShp:
    def test_returns_valid_path(self, rng):
        for n in (2, 3, 5, 9, 20, 57):
            C = random_costs(rng, n)
            p = approximate_shp(C)
            check_path(p, n)
            assert p[0] < p[-1]

    def test_deterministic(self, rng):
        C = random_costs(rng, 12)
        assert np.array_equal(approximate_shp(C), approximate_shp(C.copy()))

    def test_two_nodes(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert list(approximate_shp(C)) == [0, 1]

    def test_recovers_sorted_order_on_a_line(self):
        """For collinear points the cheapest path visits them in value order."""
        values = np.array([[0.0], [10.0], [3.0], [1.0], [6.0]])
        C = gamma_cost(values, gamma=1.0)
        p = approximate_shp(C)
        assert list(p) == [0, 3, 2, 4, 1]
        assert path_cost(p, C) == pytest.approx(10.0)  # total span, the optimum

    def test_line_recovery_random_instances(self, rng):
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, size=11)
            C = gamma_cost(x[:, None], gamma=1.0)
            p = approximate_shp(C)
            along = x[p]
            assert np.all(np.diff(along) > 0) or np.all(np.diff(along) < 0)
            assert path_cost(p, C) == pytest.approx(x.max() - x.min())

    def test_equal_costs_tie_break_regression(self):
        # all edges cost 1: admitted in the order of the seed-0 node rank, which
        # puts the nodes in order 3, 0, 1, 4, 2, so edges 3-0, 3-1, 0-4 and 1-2,
        # fixing the exact result
        C = np.ones((5, 5)) - np.eye(5)
        assert list(np.argsort(shp._node_rank(5, 0))) == [3, 0, 1, 4, 2]
        assert list(approximate_shp(C)) == [2, 1, 3, 0, 4]
        assert list(approximate_shp(C, seed=1)) == [2, 3, 0, 1, 4]

    @pytest.mark.parametrize("kind", ["continuous", "diff", "large-units"])
    def test_seed_leaves_tie_free_paths_unchanged(self, monkeypatch, kind):
        X = np.random.default_rng(3).standard_normal((90, 20))
        C = {"continuous": lambda: gamma_cost(X, 1.0), "diff": lambda: diff_augmented_cost(X),
             "large-units": lambda: gamma_cost(X * 1e8, 0.5)}[kind]()
        with monkeypatch.context() as m:  # the index rule: rank i for node i
            m.setattr(shp, "_node_rank", lambda n, seed=0: np.arange(n))
            expected = full_sort_shp(C)
        for seed in (0, 1, 12345, (5, 3)):
            assert np.array_equal(approximate_shp(C, seed), expected)

    def test_the_rank_stream_is_not_the_seed_stream(self):
        # permutation_pvalue draws from default_rng(seed), seeded by SeedSequence(seed)'s
        # words; the rank must repeat neither those words nor the draws
        for seed in (0, 1, 2):
            rank = shp._node_rank(50, seed)
            assert not np.array_equal(rank, np.random.default_rng(seed).random(50))
            assert not np.array_equal(rank, np.random.SeedSequence(seed).generate_state(50, np.uint64) * 2.0**-64)
            assert np.all((rank >= 0) & (rank <= 1)) and np.unique(rank).size == 50

    @pytest.mark.parametrize("seed", [1, 7, 2**40])
    @pytest.mark.parametrize("kind", ["integer_ties", "duplicate_rows", "all_equal"])
    def test_tied_costs_follow_the_seed(self, kind, seed):
        C = oracle_costs(kind, 60, seed=4)
        path = approximate_shp(C, seed)
        assert np.array_equal(path, full_sort_shp(C, seed))
        assert not np.array_equal(path, approximate_shp(C, seed + 1))

    def test_never_beats_brute_force(self, rng):
        for n in (4, 5, 6, 7, 8):
            for _ in range(10):
                C = random_costs(rng, n)
                greedy = path_cost(approximate_shp(C), C)
                exact = path_cost(brute_force_shp(C), C)
                assert greedy >= exact - 1e-12

    def test_matches_optimum_on_a_line(self, rng):
        x = rng.uniform(0.0, 1.0, size=8)
        C = gamma_cost(x[:, None], gamma=1.0)
        assert_allclose(
            path_cost(approximate_shp(C), C), path_cost(brute_force_shp(C), C), rtol=1e-12
        )

    def test_rejects_non_square_costs(self):
        with pytest.raises(ValueError, match="square"):
            approximate_shp(np.zeros((3, 4)))


class TestMatchesFullSort:
    """The round-based greedy admits exactly the edges of one full sort, ties by the node rank."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(
            ["continuous", "integer_ties", "duplicate_rows", "all_equal", "asymmetric"]
        ),
        n=st.integers(2, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_full_sort(self, kind, n, seed):
        C = oracle_costs(kind, n, seed)
        expected = full_sort_shp(C)
        assert np.array_equal(approximate_shp(C), expected)
        with mock.patch.object(shp, "_EDGES_PER_NODE", 1):  # many more, smaller rounds
            assert np.array_equal(approximate_shp(C), expected)

    @pytest.mark.parametrize("cells", [1, 150, 2**18], ids=["one-row", "ragged", "single"])
    @pytest.mark.parametrize(
        "kind", ["continuous", "integer_ties", "duplicate_rows", "all_equal", "asymmetric"]
    )
    @pytest.mark.parametrize("n", [2, 3, 41, 150])
    def test_strips_keep_the_full_sort_path(self, monkeypatch, kind, n, cells):
        # 150 cells: strips of 1 to 75 rows as the live set shrinks, most of them ragged
        C = oracle_costs(kind, n, seed=n)
        expected = full_sort_shp(C)
        monkeypatch.setattr(cost, "_STRIP_CELLS", cells)
        assert np.array_equal(approximate_shp(C), expected)
        with mock.patch.object(shp, "_EDGES_PER_NODE", 1):
            assert np.array_equal(approximate_shp(C), expected)

    def test_large_gamma_cost(self):
        X = np.random.default_rng(2000).normal(size=(2000, 20))
        C = gamma_cost(X, gamma=1.0)
        assert np.array_equal(approximate_shp(C), full_sort_shp(C))


@pytest.mark.parametrize("family", ["gamma1", "diff"])
def test_path_memory_is_a_few_strips(family):
    """Beyond the cost matrix, a path holds a few strips, not an N x N copy."""
    n = 1500
    X = np.random.default_rng(1).standard_normal((n, 3))
    C = gamma_cost(X, 1.0) if family == "gamma1" else diff_augmented_cost(X)
    tracemalloc.start()
    try:
        p = approximate_shp(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_path(p, n)
    # an N x N bool mask and the upper-triangle copy come to 0.8x of 8 N^2
    assert peak <= 0.25 * 8 * n * n + 8 * cost._STRIP_CELLS
