"""Tests for the three edge-cost families and the assumption diagnostics."""

import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist, squareform

from relevance_kit import cost
from relevance_kit.cost import (
    average_cost,
    check_cost_matrix,
    check_data_matrix,
    diff_augmented_cost,
    gamma_cost,
    validate_assumptions,
)


def manual_gamma(a, b, gamma):
    d = a.size
    return d ** (-1.0 / gamma) * float((np.abs(a - b) ** gamma).sum()) ** (1.0 / gamma)


def manual_diff(a, b):
    d = a.size
    return np.sqrt(
        (((a - b) ** 2).sum() + (np.diff(a) ** 2).sum() + (np.diff(b) ** 2).sum()) / d
    )


@pytest.fixture
def rng():
    return np.random.default_rng(31415)


class TestGammaCost:
    def test_euclidean_example(self):
        X = np.array([[0.0, 0, 0, 0], [2.0, 2, 2, 2]])
        assert gamma_cost(X, 2.0)[0, 1] == pytest.approx(2.0)

    def test_manhattan_example(self):
        X = np.array([[0.0, 0, 0, 0], [2.0, 2, 2, 2]])
        assert gamma_cost(X, 1.0)[0, 1] == pytest.approx(2.0)

    @pytest.mark.parametrize("gamma", [0.5, 0.8, 1.0, 1.3, 2.0])
    def test_matches_direct_formula(self, rng, gamma):
        X = rng.standard_normal((7, 5))
        C = gamma_cost(X, gamma)
        for i in range(7):
            for j in range(7):
                assert C[i, j] == pytest.approx(manual_gamma(X[i], X[j], gamma), abs=1e-12)

    def test_symmetric_and_zero_diagonal(self, rng):
        C = gamma_cost(rng.standard_normal((10, 4)), 1.3)
        assert np.array_equal(C, C.T)  # each pair computed once and mirrored, so bit-exact
        assert np.array_equal(np.diag(C), np.zeros(10))

    @pytest.mark.parametrize("gamma", [0.0, -1.0, 2.5, np.nan])
    def test_gamma_out_of_range(self, gamma):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="gamma"):
            gamma_cost(X, gamma)

    def test_dimension_scaling(self, rng):
        # doubling d with tiled coordinates leaves the cost unchanged
        X = rng.standard_normal((4, 6))
        C1 = gamma_cost(X, 1.0)
        C2 = gamma_cost(np.hstack([X, X]), 1.0)
        assert_allclose(C2, C1, rtol=1e-12)


class TestAverageCost:
    def test_row_sum_example(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert average_cost(X)[0, 1] == pytest.approx(3.0)

    def test_matches_direct_formula(self, rng):
        X = rng.standard_normal((8, 11))
        C = average_cost(X)
        sums = X.sum(axis=1)
        for i in range(8):
            for j in range(8):
                assert C[i, j] == pytest.approx(abs(sums[i] - sums[j]) / 11, abs=1e-12)

    def test_collapses_feature_detail(self):
        # equal row sums give zero cost even for different observations
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert average_cost(X)[0, 1] == 0.0


class TestDiffAugmentedCost:
    def test_small_example(self):
        X = np.array([[1.0, 1.0], [0.0, 2.0]])
        assert diff_augmented_cost(X)[0, 1] == pytest.approx(np.sqrt(3.0))

    def test_matches_direct_formula(self, rng):
        X = rng.standard_normal((6, 9))
        C = diff_augmented_cost(X)
        for i in range(6):
            for j in range(6):
                if i == j:
                    assert C[i, j] == 0.0  # no self-edges; diagonal is zero by convention
                else:
                    assert C[i, j] == pytest.approx(manual_diff(X[i], X[j]), abs=1e-12)

    def test_needs_two_features(self):
        with pytest.raises(ValueError, match="at least 2"):
            diff_augmented_cost(np.ones((3, 1)))

    def test_identical_rows_still_separated_by_roughness(self):
        # same values, but the successive-difference terms stay positive
        X = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
        C = diff_augmented_cost(X)
        assert C[0, 1] > 0.0  # identical rows, nonzero derivative norms
        assert C[0, 2] > C[0, 1]


class TestInputValidation:
    def test_data_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            check_data_matrix(np.arange(5.0))

    def test_data_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            check_data_matrix(np.ones((1, 3)))

    def test_non_finite_entry_located(self):
        X = np.ones((3, 3))
        X[1, 2] = np.inf
        with pytest.raises(ValueError, match="row 1, column 2"):
            check_data_matrix(X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, 1), (3, 2)], ids=["first", "inner", "last"])
    def test_non_finite_entry_of_any_kind_is_named(self, bad, at):
        # the first bad entry in row order is named, whatever follows it
        X = np.ones((4, 3))
        X[3, 2] = np.nan
        X[at] = bad
        with pytest.raises(ValueError, match=rf"^data contains a non-finite entry at "
                                             rf"row {at[0]}, column {at[1]}$"):
            check_data_matrix(X)

    @pytest.mark.parametrize("check", [check_data_matrix, check_cost_matrix])
    def test_finiteness_is_tested_without_a_mask(self, check):
        X = np.random.default_rng(2).standard_normal((1000, 1000))
        tracemalloc.start()
        try:
            assert check(X) is X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a boolean mask of X's shape is one byte per cell, and a strip of it 2**18 bytes
        assert peak < 0.01 * X.size

    def test_cost_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            check_cost_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize("cells", [4, 2**18], ids=["one-row-strips", "one-strip"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cost_matrix_must_be_finite(self, monkeypatch, bad, cells):
        monkeypatch.setattr(cost, "_STRIP_CELLS", cells)
        C = np.zeros((4, 4))
        C[3, 1] = bad
        with pytest.raises(ValueError, match="^cost matrix contains non-finite entries$"):
            check_cost_matrix(C)

    def test_integer_input_accepted(self):
        C = gamma_cost(np.array([[0, 0], [3, 4]]), 2.0)
        assert C[0, 1] == pytest.approx(5.0 / np.sqrt(2.0))


FAMILIES = {
    "gamma0.5": lambda X: gamma_cost(X, 0.5),
    "gamma1": lambda X: gamma_cost(X, 1.0),
    "gamma1.5": lambda X: gamma_cost(X, 1.5),
    "gamma2": lambda X: gamma_cost(X, 2.0),
    "average": average_cost,
    "diff": diff_augmented_cost,
}


def condensed_oracle(X, family):
    """The cost matrix from one ``pdist`` over all pairs and one ``squareform``."""
    n, d = X.shape
    if family == "average":
        return squareform(pdist((X.sum(axis=1) / d)[:, None], "cityblock"))
    if family == "diff":
        sq = pdist(X, "sqeuclidean")
        dot_sq = (np.diff(X, axis=1) ** 2).sum(axis=1)
        iu, ju = np.triu_indices(n, 1)
        return squareform(np.sqrt((sq + dot_sq[iu] + dot_sq[ju]) / d))
    gamma, metric, kwargs = {
        "gamma0.5": (0.5, "minkowski", {"p": 0.5}),
        "gamma1": (1.0, "cityblock", {}),
        "gamma1.5": (1.5, "minkowski", {"p": 1.5}),
        "gamma2": (2.0, "euclidean", {}),
    }[family]
    return squareform(pdist(X, metric, **kwargs) * d ** (-1.0 / gamma))


def strip_data(kind, n, d, rng):
    if kind == "continuous":
        return rng.standard_normal((n, d))
    if kind == "tied_integer":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    distinct = rng.standard_normal((max(1, n // 4), d))  # "duplicate_rows"
    return distinct[rng.integers(0, len(distinct), size=n)]


class TestStripBuilder:
    """Strip-built cost matrices equal the one-pdist build bit for bit."""

    @pytest.mark.parametrize("rows", [1, 5, None], ids=["one-row", "ragged", "single"])
    @pytest.mark.parametrize("kind", ["continuous", "tied_integer", "duplicate_rows"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bit_identical_to_condensed_build(self, monkeypatch, rng, family, kind, rows):
        n = 23  # 5-row strips: four full and a ragged 3-row one
        X = strip_data(kind, n, 6, rng)
        monkeypatch.setattr(cost, "_STRIP_CELLS", n * rows if rows else 2**18)
        C = FAMILIES[family](X)
        assert np.array_equal(C, condensed_oracle(X, family))
        assert np.array_equal(C, C.T)
        assert not C.flags.writeable

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_tiles_wider_than_a_strip_is_tall(self, monkeypatch, rng, family):
        n = 100  # 3-row strips, tiled 6 columns at a time with ragged ends
        X = strip_data("continuous", n, 6, rng)
        monkeypatch.setattr(cost, "_STRIP_CELLS", 3 * n)
        assert np.array_equal(FAMILIES[family](X), condensed_oracle(X, family))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_multi_strip_at_default_strip_size(self, rng, family):
        X = rng.standard_normal((700, 4))  # 374-row strips: two of them
        assert cost._strip_rows(700) < 700
        assert np.array_equal(FAMILIES[family](X), condensed_oracle(X, family))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_one_block_at_default_strip_size(self, rng, family):
        X = rng.standard_normal((512, 4))  # 512-row strips: the matrix is one diagonal block
        assert cost._strip_rows(512) == 512
        C = FAMILIES[family](X)
        assert np.array_equal(C, condensed_oracle(X, family))
        assert np.array_equal(C, C.T)


class TestStripMemory:
    """Beyond its 8 N^2-byte result, a cost build holds a strip or two, not a condensed copy."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_peak_is_the_matrix_plus_strips(self, family):
        n = 1500
        X = np.random.default_rng(1).standard_normal((n, 3))
        tracemalloc.start()
        try:
            C = FAMILIES[family](X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C.shape == (n, n)
        # a condensed build holds 1.5x to 3x the matrix
        assert peak <= 1.25 * 8 * n * n + 8 * cost._STRIP_CELLS

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_one_strip_is_written_in_place(self, family):
        n = 512  # one strip, one diagonal block: no tile
        X = np.random.default_rng(1).standard_normal((n, 3))
        assert cost._strip_rows(n) == n
        tracemalloc.start()
        try:
            C = FAMILIES[family](X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C.shape == (n, n)
        # the block's pdist (1 MiB) and then its mirrored half; a squareform
        # copy of the block beside them would add a whole strip (2 MiB)
        assert peak - 8 * n * n <= 0.75 * 8 * cost._STRIP_CELLS

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_off_diagonal_tiles_share_one_buffer(self, family):
        n = 2000  # 131-row strips: 16 of them, tiled into up to 15 tiles each
        X = np.random.default_rng(1).standard_normal((n, 3))
        assert cost._strip_rows(n) < n
        tracemalloc.start()
        try:
            C = FAMILIES[family](X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C.shape == (n, n)
        # a whole strip of cdist costs per strip would be 2 MiB
        assert peak - 8 * n * n <= 8 * cost._STRIP_CELLS / 4


class TestMemoryGuard:
    """N whose cost matrix and strips exceed physical memory is refused up front."""

    @pytest.mark.parametrize(
        "family",
        [lambda X: gamma_cost(X, 1.0), average_cost, diff_augmented_cost],
        ids=["gamma", "average", "diff_augmented"],
    )
    def test_every_family_refuses_too_large_n(self, monkeypatch, family):
        need = 8 * 100 * 100 + 4 * 8 * cost._STRIP_CELLS  # the matrix and four strips
        monkeypatch.setattr(cost, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=r"N=100 observations need about .* GiB"):
            family(np.ones((100, 3)))
        assert family(np.ones((99, 3))).shape == (99, 99)

    def test_unknown_memory_skips_the_guard(self, monkeypatch):
        monkeypatch.setattr(cost, "_physical_memory_bytes", lambda: None)
        assert check_data_matrix(np.ones((100, 3))).shape == (100, 3)

    def test_probe_reports_positive_bytes_or_none(self):
        have = cost._physical_memory_bytes()
        assert have is None or have > 0


def loop_diagnostics(C, symmetry_tol, triangle_tol):
    """The diagnostics by a Python loop over every violating triple, with the tolerances given."""
    n = C.shape[0]
    iu, ju = np.triu_indices(n, 1)
    pos = int(np.count_nonzero(C[iu, ju] <= 0.0))
    asym = int(np.count_nonzero(np.abs(C - C.T)[iu, ju] > symmetry_tol))
    tri = 0
    for c in range(n):
        excess = C - (C[:, c][:, None] + C[c, :][None, :])
        for a, b in np.argwhere(excess > triangle_tol):
            if a == c or b == c or a >= b:
                continue
            tri += 1
    return cost.CostDiagnostics(n, pos, asym, tri)


def derived_tolerances(C):
    scale = max(1.0, float(np.abs(C).max()))
    return 1e-12 * scale, 1e-9 * scale


@st.composite
def cost_matrices(draw):
    """Small matrices of each kind the check must judge, with a strip size that splits them."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["asymmetric", "zeros", "negative", "gamma0.5", "ties"]))
    if kind == "asymmetric":  # a nonzero diagonal too
        C = rng.uniform(0.0, 1.0, (n, n))
    elif kind == "zeros":
        C = gamma_cost(rng.integers(0, 2, (n, 2)).astype(float), 2.0) * (rng.random((n, n)) < 0.7)
    elif kind == "negative":
        C = rng.uniform(-1.0, 1.0, (n, n))
        C = (C + C.T) / 2
    elif kind == "gamma0.5":
        C = gamma_cost(rng.standard_normal((n, 2)), 0.5)
    else:
        C = gamma_cost(rng.integers(0, 3, (n, 3)).astype(float), 0.5)
    scale = draw(st.sampled_from([1.0, 1e-3, 1e8]))
    return C * scale, draw(st.integers(1, n))


class TestValidateAssumptions:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn=cost_matrices())
    def test_equals_the_loop_at_the_derived_tolerances(self, drawn):
        C, rows = drawn
        with mock.patch.object(cost, "_STRIP_CELLS", C.shape[0] * rows):
            diag = validate_assumptions(C)
        assert diag == loop_diagnostics(C, *derived_tolerances(C))

    def test_equals_the_loop_over_several_default_strips(self):
        n = 600
        C = gamma_cost(np.random.default_rng(5).standard_normal((n, 2)), 1.0)
        C = C / C.max()
        C[3, 590] = C[590, 3] = 1.5  # a long edge, from the first strip
        C[500, 599] = C[599, 500] = 0.0  # a zero and an asymmetry in the second
        C[450, 520] += 1e-6
        assert cost._strip_rows(n) < 450
        diag = validate_assumptions(C)
        assert diag == loop_diagnostics(C, *derived_tolerances(C))
        assert (diag.positivity_count, diag.symmetry_count) == (1, 1)
        assert diag.triangle_count > 100

    def test_peak_is_under_three_strips(self):
        n = 1000
        C = gamma_cost(np.random.default_rng(2).standard_normal((n, 2)), 0.5)
        tracemalloc.start()
        try:
            diag = validate_assumptions(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.triangle_count > 0
        assert peak < 3 * 8 * cost._STRIP_CELLS  # 6 MiB; N x N temporaries held 42.9 MiB

    def test_clean_matrix_passes(self, rng):
        C = gamma_cost(rng.standard_normal((12, 6)), 2.0)
        diag = validate_assumptions(C)
        assert diag.ok
        assert "all regularity checks passed" in diag.summary()

    def test_duplicate_rows_flag_positivity(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 1.0]])
        diag = validate_assumptions(gamma_cost(X, 2.0))
        assert diag.positivity_count == 1
        assert not diag.ok

    def test_asymmetry_flagged(self):
        C = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0 + 1e-6, 1.0, 0.0]])
        diag = validate_assumptions(C)
        assert diag.symmetry_count == 1

    def test_sub_one_gamma_can_break_triangle(self):
        # right-angle configuration: the long leg exceeds the two short
        # legs combined once gamma drops below 1
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        C = gamma_cost(X, 0.5)
        assert C[0, 2] > C[0, 1] + C[1, 2]
        diag = validate_assumptions(C)
        assert diag.triangle_count > 0
        assert validate_assumptions(gamma_cost(X * 1e8, 0.5)).triangle_count > 0

    def test_large_units_report_no_false_violations(self):
        # average costs are |s_a - s_b|, a metric: only rounding, which
        # grows with the unit, can make a triangle excess
        X = np.random.default_rng(7).standard_normal((120, 20))
        assert validate_assumptions(average_cost(X * 1e8)).triangle_count == 0

    def test_triangle_holds_for_euclidean(self, rng):
        C = gamma_cost(rng.standard_normal((15, 3)), 2.0)
        assert validate_assumptions(C).triangle_count == 0

    @pytest.mark.parametrize("family", ["gamma1", "gamma0.5", "diff"])
    def test_concentrated_costs_need_no_triangle_scan(self, family):
        # high-dimensional Gaussian costs all lie near one value, so no
        # cost exceeds twice the least one and no triple can breach
        C = FAMILIES[family](np.random.default_rng(11).standard_normal((60, 500)))
        with mock.patch.object(cost, "_triangle_breaches", side_effect=AssertionError("scanned")):
            diag = validate_assumptions(C)
        assert diag == loop_diagnostics(C, *derived_tolerances(C))
        assert {type(count) for count in astuple(diag)} == {int}  # JSON-ready, as the scan's

    def test_shifted_asymmetric_costs_need_no_triangle_scan(self):
        # the diagonal is read by neither check, so its zeros do not force a scan
        C = 1.0 + 0.5 * np.random.default_rng(12).random((40, 40))
        np.fill_diagonal(C, 0.0)
        with mock.patch.object(cost, "_triangle_breaches", side_effect=AssertionError("scanned")):
            diag = validate_assumptions(C)
        assert diag == loop_diagnostics(C, *derived_tolerances(C))
        assert diag.symmetry_count > 0

    @pytest.mark.parametrize("kind", ["gamma0.5-d3", "duplicate-rows", "low-lower-cost"])
    def test_spread_costs_are_scanned(self, kind):
        rng = np.random.default_rng(13)
        if kind == "gamma0.5-d3":
            C = gamma_cost(rng.standard_normal((50, 3)), 0.5)
        elif kind == "duplicate-rows":
            distinct = rng.standard_normal((10, 3))
            C = gamma_cost(distinct[rng.integers(0, 10, 50)], 2.0)
        else:  # the least cost lies below the diagonal, where only the scan's cost(c, b) reads it
            C = np.ones((8, 8)) - np.eye(8)
            C[0, 2], C[5, 2] = 1.5, 0.0
        scan = mock.Mock(wraps=cost._triangle_breaches)
        with mock.patch.object(cost, "_triangle_breaches", scan):
            diag = validate_assumptions(C)
        assert scan.call_count == 1
        assert diag == loop_diagnostics(C, *derived_tolerances(C))
        assert diag.triangle_count > 0 or kind == "duplicate-rows"

    def test_all_duplicate_rows(self):
        # every off-diagonal pair violates positivity, and no triangle is broken
        X = np.zeros((30, 2))
        diag = validate_assumptions(gamma_cost(X, 2.0))
        assert diag == cost.CostDiagnostics(30, 30 * 29 // 2, 0, 0)
