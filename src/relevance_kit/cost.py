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

:func:`validate_assumptions` checks the regularity conditions the
downstream tests rely on (positivity, symmetry, triangle inequality)
and reports violations without raising.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

__all__ = [
    "gamma_cost",
    "average_cost",
    "diff_augmented_cost",
    "validate_assumptions",
    "CostDiagnostics",
    "check_data_matrix",
    "check_cost_matrix",
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


def check_data_matrix(data) -> np.ndarray:
    """Validate and return an N x d data matrix as float64.

    Requires N >= 2 rows, d >= 1 columns, and finite entries.  Every
    cost family builds its N x N float64 matrix (8 N^2 bytes) in row
    strips, and :func:`~relevance_kit.shp.approximate_shp` reads it in
    strips too; measured at N = 600 to 4000, their working memory beyond
    the matrix stays under three strips of ``_STRIP_CELLS`` costs.  An N
    for which 8 N^2 bytes plus four strips (8 MiB) exceed the machine's
    physical memory raises ``ValueError`` here, before any of it is
    allocated.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"data must be 2-D (observations x features), got ndim={X.ndim}")
    n, d = X.shape
    if n < 2 or d < 1:
        raise ValueError(f"data must have at least 2 rows and 1 column, got shape {X.shape}")
    need, have = 8 * (n * n + 4 * _STRIP_CELLS), _physical_memory_bytes()
    if have is not None and need > have:
        raise ValueError(
            f"N={n} observations need about {need / 2**30:.1f} GiB for the cost matrix, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )
    if not np.isfinite(X).all():
        bad = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"data contains a non-finite entry at row {bad[0]}, column {bad[1]}")
    return X


def check_cost_matrix(costs) -> np.ndarray:
    """Validate basic shape requirements of a square cost matrix."""
    C = np.asarray(costs, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {C.shape}")
    if C.shape[0] < 2:
        raise ValueError("cost matrix needs at least 2 nodes")
    rows = _strip_rows(C.shape[0])  # a strip's mask at a time, not an N x N one
    if not all(np.isfinite(C[a : a + rows]).all() for a in range(0, C.shape[0], rows)):
        raise ValueError("cost matrix contains non-finite entries")
    return C


def _strip_costs(X: np.ndarray, finish, metric: str, **kwargs) -> np.ndarray:
    """Symmetric N x N costs from ``metric`` on the rows of ``X``, built in row strips.

    ``finish(D, pairs)`` turns raw metric values ``D`` into costs in place;
    ``pairs()`` returns the row and column indices (i < j) of ``D``'s
    entries, broadcastable against it.  Pairs within a strip come from
    ``pdist`` and pairs from a strip to every later row from ``cdist``,
    whose rows equal ``pdist``'s bit for bit.  Each pair is computed once
    and mirrored, so symmetry is bit-exact and the diagonal is exactly
    zero.  Beyond the matrix, the working memory is under two strips of
    ``_STRIP_CELLS`` costs; an N that fits in one strip takes a single
    ``pdist`` and ``squareform``, as a plain condensed build would.
    """
    n = X.shape[0]
    rows = _strip_rows(n)

    def within(a: int, e: int) -> np.ndarray:
        def pairs():
            i, j = np.triu_indices(e - a, 1)
            i += a
            j += a
            return i, j

        D = pdist(X[a:e], metric, **kwargs)
        finish(D, pairs)
        return squareform(D)

    if rows >= n:
        C = within(0, n)
    else:
        C = np.empty((n, n))
        for a in range(0, n, rows):
            e = min(a + rows, n)
            C[a:e, a:e] = within(a, e)
            if e < n:
                D = cdist(X[a:e], X[e:], metric, **kwargs)
                finish(D, lambda: (np.arange(a, e)[:, None], np.arange(e, n)))
                C[a:e, e:] = D
                C[e:, a:e] = D.T
    C.setflags(write=False)
    return C


def gamma_cost(data, gamma: float) -> np.ndarray:
    """Dimension-scaled gamma-norm cost matrix.

    cost(t1, t2) = d**(-1/gamma) * (sum_q |X[t1,q] - X[t2,q]|**gamma)**(1/gamma)

    Parameters
    ----------
    data : array_like, shape (N, d)
        Observations as rows.
    gamma : float
        Norm order, must lie in (0, 2].  gamma = 2 gives the scaled
        Euclidean distance; values below 1 are accepted but the result
        may violate the triangle inequality (see
        :func:`validate_assumptions`).

    Returns
    -------
    ndarray, shape (N, N)
        Symmetric cost matrix with zero diagonal.
    """
    if not (0.0 < gamma <= 2.0):
        raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
    X = check_data_matrix(data)
    scale = X.shape[1] ** (-1.0 / gamma)

    def finish(D, pairs):
        D *= scale

    if gamma == 2.0:
        return _strip_costs(X, finish, "euclidean")
    if gamma == 1.0:
        return _strip_costs(X, finish, "cityblock")
    return _strip_costs(X, finish, "minkowski", p=gamma)


def average_cost(data) -> np.ndarray:
    """Cost matrix from scaled coordinate sums.

    cost(t1, t2) = |sum_q X[t1,q] - sum_q X[t2,q]| / d

    Collapses each observation to its coordinate sum, so only mean
    shifts separate the samples.
    """
    X = check_data_matrix(data)
    sums = X.sum(axis=1) / X.shape[1]
    return _strip_costs(sums[:, None], lambda D, pairs: None, "cityblock")


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

    def finish(D, pairs):
        i, j = pairs()
        D += dot_sq[i]  # the sum in the order (sq + dot_sq[i]) + dot_sq[j]
        D += dot_sq[j]
        D /= d
        np.sqrt(D, out=D)

    return _strip_costs(X, finish, "sqeuclidean")


@dataclass(frozen=True)
class CostDiagnostics:
    """Advisory report on cost-matrix regularity.

    Attributes list offending index pairs/triples (capped at
    ``max_listed`` each); the ``*_count`` fields always hold the full
    violation counts.
    """

    n: int
    positivity_violations: list = field(default_factory=list)
    symmetry_violations: list = field(default_factory=list)
    triangle_violations: list = field(default_factory=list)
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


def validate_assumptions(
    costs,
    *,
    symmetry_tol: float = 1e-12,
    triangle_tol: float = 1e-9,
    max_listed: int = 100,
) -> CostDiagnostics:
    """Check positivity, symmetry, and the triangle inequality.

    The checks are diagnostic only: duplicate observations (zero cost)
    or a sub-1 gamma norm can legitimately trip them, and the path
    construction tolerates both.  Nothing is raised.

    Returns
    -------
    CostDiagnostics
        Violation lists (index pairs for positivity/symmetry, index
        triples ``(a, b, c)`` with cost(a,b) > cost(a,c) + cost(b,c)
        for the triangle check) plus total counts.
    """
    C = check_cost_matrix(costs)
    n = C.shape[0]

    iu, ju = np.triu_indices(n, 1)
    off = C[iu, ju]
    pos_mask = off <= 0.0
    pos_pairs = [(int(i), int(j)) for i, j in zip(iu[pos_mask], ju[pos_mask])]

    asym = np.abs(C - C.T)
    asym_mask = asym[iu, ju] > symmetry_tol
    asym_pairs = [(int(i), int(j)) for i, j in zip(iu[asym_mask], ju[asym_mask])]

    tri: list[tuple[int, int, int]] = []
    tri_count = 0
    # One intermediate node at a time keeps memory at O(N^2).
    for c in range(n):
        excess = C - (C[:, c][:, None] + C[c, :][None, :])
        bad = np.argwhere(excess > triangle_tol)
        for a, b in bad:
            if a == c or b == c or a >= b:
                continue
            tri_count += 1
            if len(tri) < max_listed:
                tri.append((int(a), int(b), int(c)))

    return CostDiagnostics(
        n=n,
        positivity_violations=pos_pairs[:max_listed],
        symmetry_violations=asym_pairs[:max_listed],
        triangle_violations=tri,
        positivity_count=len(pos_pairs),
        symmetry_count=len(asym_pairs),
        triangle_count=tri_count,
    )
