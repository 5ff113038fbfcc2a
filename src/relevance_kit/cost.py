"""Edge-cost construction for high-dimensional observations.

Three cost families turn an N x d data matrix into a symmetric N x N
matrix of nonnegative edge costs:

- :func:`gamma_cost` -- dimension-scaled gamma-norm of the coordinate
  differences, gamma in (0, 2].
- :func:`average_cost` -- absolute difference of the (scaled) coordinate
  sums; sensitive to mean shifts only.
- :func:`diff_augmented_cost` -- Euclidean cost augmented with the norms
  of each observation's successive-difference vector; sensitive to both
  mean and covariance changes.

:func:`validate_assumptions` counts, without raising, the breaches of
the regularity conditions the downstream tests rely on (positivity,
symmetry, triangle inequality), reading the matrix in row strips.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

__all__ = [
    "gamma_cost",
    "average_cost",
    "diff_augmented_cost",
    "validate_assumptions",
    "CostDiagnostics",
    "check_data_matrix",
    "check_cost_matrix",
    "check_gamma",
]

_STRIP_CELLS = 2 ** 18  # costs per row strip of the cost build, its checks and the path: 2 MiB


def _strip_rows(n: int) -> int:
    """Rows per strip of a block with ``n`` columns."""
    return max(1, _STRIP_CELLS // n)


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _cost_matrix_bytes(n: int) -> int:
    """Bytes of an N x N float64 cost matrix plus four strips beside it."""
    return 8 * (n * n + 4 * _STRIP_CELLS)


def _check_memory(need: int, subject: str, use: str) -> None:
    """Raise ``ValueError`` when ``need`` bytes exceed the physical memory."""
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ValueError(
            f"{subject} need about {need / 2**30:.1f} GiB for {use}, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _all_finite(X: np.ndarray) -> bool:
    """True when the non-empty array ``X`` holds no nan or infinity.

    Two reductions, ``min`` and ``max``, read the array in place: nan
    propagates through both, and an infinity is one or the other.  No
    mask of X's size is built.
    """
    return bool(np.isfinite(X.min()) and np.isfinite(X.max()))


def check_data_matrix(data) -> np.ndarray:
    """Validate and return an N x d data matrix as float64.

    Requires N >= 2 rows, d >= 1 columns, and finite entries, tested by
    :func:`_all_finite`; only a matrix that fails builds a mask, to name
    the first bad entry.  Every
    cost family builds its N x N float64 matrix (8 N^2 bytes) in row
    strips, and :func:`~relevance_kit.shp.approximate_shp` reads it in
    strips too; measured at N = 600 to 4000, their working memory beyond
    the matrix stays under three strips of ``_STRIP_CELLS`` costs.  The
    build's, measured at 37 N from 2 to 4000, stays under 0.85 of a strip
    (1.62 MiB at N = 725, 1.25 MiB at N = 512) and, from N = 2000 up,
    under a fifth of one: it writes each diagonal block's ``pdist`` into
    the matrix in place.  An N for which 8 N^2 bytes plus four strips
    (8 MiB) exceed the machine's physical memory raises ``ValueError``
    here, before any of it is allocated.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"data must be 2-D (observations x features), got ndim={X.ndim}")
    n, d = X.shape
    if n < 2 or d < 1:
        raise ValueError(f"data must have at least 2 rows and 1 column, got shape {X.shape}")
    _check_memory(_cost_matrix_bytes(n), f"N={n} observations", "the cost matrix")
    if not _all_finite(X):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"data contains a non-finite entry at row {bad[0]}, column {bad[1]}")
    return X


def check_cost_matrix(costs) -> np.ndarray:
    """Validate and return a square cost matrix of at least 2 nodes as float64.

    Its entries must be finite, tested by :func:`_all_finite` with no
    N x N mask.
    """
    C = np.asarray(costs, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {C.shape}")
    if C.shape[0] < 2:
        raise ValueError("cost matrix needs at least 2 nodes")
    if not _all_finite(C):
        raise ValueError("cost matrix contains non-finite entries")
    return C


def _strip_costs(X: np.ndarray, finish, metric: str, **kwargs) -> np.ndarray:
    """Symmetric N x N costs from ``metric`` on the rows of ``X``, built in row strips.

    ``finish(D, rows, cols)`` turns the raw metric values ``D`` of rows
    ``X[rows]`` against rows ``X[cols]``, two slices, into costs in place.
    A strip of ``_strip_rows(n)`` rows writes the ``pdist`` of the pairs
    within it straight into the upper triangle of its diagonal block of
    the matrix, finishes the block in place and mirrors it; the pairs to
    every later row come from tiles of ``cdist``, whose rows equal
    ``pdist``'s bit for bit, each computed into one buffer reused for
    the whole build.  A tile is ``rows`` wide, or wider where that keeps
    it at a sixteenth of a strip (128 KiB, from N = 2049 up), so a strip
    takes at most 17 ``cdist`` calls and the build about 8 N^2 / 2^18 of
    them.  Each pair is computed once and mirrored, so symmetry is
    bit-exact, and the diagonal is set to exactly zero.  Beyond the
    matrix, the working memory is the tile buffer, a mask of the block's
    upper triangle and one diagonal block's ``pdist``, then the copy of
    its finished half that is mirrored.  Measured at d = 3: 1.25 MiB at
    N = 512, where a strip is 2 MiB and the whole matrix is one
    diagonal block; 1.62 MiB, the most of any N measured, at N = 725;
    0.23-0.35 MiB at N = 2000 and under 0.35 MiB up to N = 4000.
    """
    n = X.shape[0]
    rows = _strip_rows(n)
    C = np.empty((n, n))
    upper = ~np.tri(min(rows, n), dtype=bool)
    width = max(rows, _STRIP_CELLS // 16 // rows)
    tile = None
    for a in range(0, n, rows):
        e = min(a + rows, n)
        block, strip, above = C[a:e, a:e], slice(a, e), upper[: e - a, : e - a]
        block.fill(0.0)  # finish reads the whole block, its lower half included
        block[above] = pdist(X[a:e], metric, **kwargs)
        finish(block, strip, strip)
        block.T[above] = block[above]
        if tile is None:  # the largest tile, allocated once the first block's pdist is freed
            tile = np.empty(rows * min(width, n - e))
        for f in range(e, n, width):
            g = min(f + width, n)
            D = tile[: (e - a) * (g - f)].reshape(e - a, g - f)
            cdist(X[a:e], X[f:g], metric, out=D, **kwargs)
            finish(D, strip, slice(f, g))
            C[a:e, f:g] = D
            C[f:g, a:e] = D.T
    np.fill_diagonal(C, 0.0)
    C.setflags(write=False)
    return C


def check_gamma(gamma: float) -> None:
    """Reject a norm order outside (0, 2], the orders :func:`gamma_cost` takes."""
    if not 0.0 < gamma <= 2.0:
        raise ValueError(f"gamma must lie in (0, 2], got {gamma}")


def gamma_cost(data, gamma: float) -> np.ndarray:
    """Dimension-scaled gamma-norm cost matrix, symmetric with zero diagonal.

    cost(t1, t2) = d**(-1/gamma) * (sum_q |X[t1,q] - X[t2,q]|**gamma)**(1/gamma)

    ``data`` holds the observations as rows, and gamma must lie in (0, 2].
    gamma = 2 gives the scaled Euclidean distance.  Below 1 the cost is no
    norm and can break the triangle inequality, which
    :func:`validate_assumptions` counts.
    """
    check_gamma(gamma)
    X = check_data_matrix(data)
    scale = X.shape[1] ** (-1.0 / gamma)

    def finish(D, rows, cols):
        D *= scale

    return _strip_costs(X, finish, "minkowski", p=gamma)


def average_cost(data) -> np.ndarray:
    """Cost matrix from scaled coordinate sums.

    cost(t1, t2) = |sum_q X[t1,q] - sum_q X[t2,q]| / d

    Collapses each observation to its coordinate sum, so only mean
    shifts separate the samples.
    """
    X = check_data_matrix(data)
    sums = X.sum(axis=1) / X.shape[1]
    return _strip_costs(sums[:, None], lambda D, rows, cols: None, "cityblock")


def diff_augmented_cost(data) -> np.ndarray:
    """Euclidean cost augmented with successive-difference norms.

    With Xdot[t] = (X[t,2]-X[t,1], ..., X[t,d]-X[t,d-1]),

    cost(t1, t2) = d**(-1/2) * sqrt(||X[t1]-X[t2]||**2
                                    + ||Xdot[t1]||**2 + ||Xdot[t2]||**2)

    The per-observation difference terms react to changes in the
    autocovariance structure, not just the mean.  Requires d >= 2.
    """
    X = check_data_matrix(data)
    d = X.shape[1]
    if d < 2:
        raise ValueError(f"diff_augmented_cost needs at least 2 features, got d={d}")
    dot_sq = (np.diff(X, axis=1) ** 2).sum(axis=1)

    def finish(D, rows, cols):
        D += dot_sq[rows, None]  # the sum in the order (sq + dot_sq[i]) + dot_sq[j]
        D += dot_sq[cols]
        D /= d
        np.sqrt(D, out=D)

    return _strip_costs(X, finish, "sqeuclidean")


@dataclass(frozen=True)
class CostDiagnostics:
    """Advisory report on cost-matrix regularity over ``n`` nodes: the
    numbers of nonpositive off-diagonal costs, asymmetric pairs and
    triangle-inequality breaches."""

    n: int
    positivity_count: int = 0
    symmetry_count: int = 0
    triangle_count: int = 0

    @property
    def ok(self) -> bool:
        return (self.positivity_count + self.symmetry_count + self.triangle_count) == 0

    def summary(self) -> str:
        if self.ok:
            return f"cost matrix on {self.n} nodes: all regularity checks passed"
        return (
            f"cost matrix on {self.n} nodes: "
            f"{self.positivity_count} nonpositive off-diagonal entries, "
            f"{self.symmetry_count} asymmetric pairs, "
            f"{self.triangle_count} triangle-inequality violations"
        )


_SYMMETRY_TOL, _TRIANGLE_TOL = 1e-12, 1e-9  # times max(1, largest |cost|)


def validate_assumptions(costs) -> CostDiagnostics:
    """Count breaches of positivity, symmetry and the triangle inequality.

    The checks are diagnostic only: duplicate observations (zero cost)
    or a sub-1 gamma norm can legitimately trip them, and the path
    construction tolerates both.  Nothing is raised.  Pairs are (a, b)
    with a < b, counted once; a triangle breach is a triple (a, b, c),
    c other than a and b, with cost(a, b) > cost(a, c) + cost(c, b).
    Asymmetries and triangle excesses count above 1e-12 and 1e-9 times
    max(1, largest |cost|).

    One pass over row strips of ``_strip_rows(n)`` rows counts the
    nonpositive and asymmetric pairs and keeps the largest pair cost
    ``hi`` and the least off-diagonal cost ``lo``, over both triangles.
    No triple can exceed ``hi - 2 lo``, and rounding keeps the scan's
    computed excess at or below that difference's, so where it is within
    the tolerance there is no breach and the count is 0 without a scan.
    Costs of high-dimensional data concentrate: on standard normal rows,
    ``gamma:1`` reads ``hi / lo`` about 1.4 at d = 500 (N = 2000 then
    takes about 0.03 s) and 1.8 to 2.03 at d = 100, N = 500, so there
    either side occurs.  Otherwise :func:`_triangle_breaches` scans every triple, once per
    intermediate node c within each strip: O(N^3) time (about 2 s at
    N = 1000, d = 50).  Both passes hold under three strips of memory
    beyond the matrix.
    """
    C = check_cost_matrix(costs)
    n = C.shape[0]
    rows = min(_strip_rows(n), n)
    scale = max(1.0, -C.min(), C.max())  # max(1, largest |cost|) by two reductions
    upper = np.triu(np.ones((rows, rows), dtype=bool))

    def pairs(mask: np.ndarray) -> np.ndarray:
        """``mask``, on C[a:e, a + 1:], kept at pairs a' < b' only."""
        mask[:, : len(mask)] &= upper[: len(mask), : mask.shape[1]]
        return mask

    pos = asym = 0
    hi, lo = -np.inf, np.inf
    excess = np.empty((rows, n - 1))
    for a in range(0, n - 1, rows):
        e = min(a + rows, n)
        block, lower = C[a:e, a + 1 :], C[a + 1 :, a:e].T
        out, pair = excess[: e - a, : n - a - 1], pairs(np.ones(block.shape, dtype=bool))
        pos += int(np.count_nonzero(pairs(block <= 0.0)))
        np.subtract(block, lower, out=out)
        asym += int(np.count_nonzero(pairs(np.abs(out, out=out) > _SYMMETRY_TOL * scale)))
        hi = max(hi, block.max(where=pair, initial=hi))
        lo = min(lo, block.min(where=pair, initial=lo), lower.min(where=pair, initial=lo))
    tol = _TRIANGLE_TOL * scale
    tri = 0 if hi - 2.0 * lo <= tol else _triangle_breaches(C, tol, pairs, excess)
    return CostDiagnostics(n, pos, asym, tri)


def _triangle_breaches(C: np.ndarray, tol: float, pairs, excess: np.ndarray) -> int:
    """Triples (a, b, c), a < b, c other than a and b, whose excess
    cost(a, b) - (cost(a, c) + cost(c, b)) is above ``tol``.

    Row strips of ``len(excess)`` rows, each with every intermediate
    node c in turn: ``excess`` holds one strip's excesses, and
    ``pairs`` keeps a strip's mask at its pairs a < b.
    """
    n, rows = C.shape[0], len(excess)
    tri = 0
    for a in range(0, n - 1, rows):
        e = min(a + rows, n)
        block, out = C[a:e, a + 1 :], excess[: e - a, : n - a - 1]
        for c in range(n):
            np.add(C[a:e, c, None], C[c, a + 1 :], out=out)
            np.subtract(block, out, out=out)
            mask = out > tol
            if a <= c < e:
                mask[c - a] = False
            if c > a:
                mask[:, c - a - 1] = False
            tri += int(np.count_nonzero(pairs(mask)))
    return tri
