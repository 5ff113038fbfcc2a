"""Permutation-null moments and covariances of path edge counts.

Under uniform permutation of group labels over a fixed path, the
between- and within-group edge counts have closed-form first and second
moments depending only on the group sizes (Chen & Friedman, JASA 2017).
This module is the one place those closed forms live:
:class:`MomentContext` carries the k x k mean and variance tables of
every count and, built on first use, the covariance matrix of the
between counts (:func:`build_sigma`) that the tests read.  An
exhaustive enumeration oracle (:func:`enumerate_null_moments`)
recomputes every moment exactly for small N by iterating over all
distinct label arrangements.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .counts import GroupAssignment

__all__ = [
    "MomentContext",
    "build_sigma",
    "EnumeratedMoments",
    "enumerate_null_moments",
]

_ENUM_MAX = 8


@dataclass(frozen=True)
class MomentContext:
    """Group sizes n_1..n_k, their total N, and every count's null moments.

    ``mean[i, j]`` and ``var[i, j]`` are the null mean and variance of the
    edge count S(G_{i+1}, G_{j+1}) (0-based indices, symmetric); the
    diagonal holds the within-group counts S(G_i, G_i).  ``sigma`` is the
    covariance of the between counts, built on first use.  All three
    tables are read-only and are the only place the closed forms are
    written out.
    """

    sizes: np.ndarray
    total: int = field(init=False)
    mean: np.ndarray = field(init=False, repr=False, compare=False)
    var: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = np.asarray(self.sizes)
        if raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.trunc(raw))).all():
            raise ValueError(f"group sizes must be integers >= 1, got {raw.tolist()}")
        sizes = raw.astype(np.int64)
        if sizes.ndim != 1 or sizes.size < 1:
            raise ValueError("sizes must be a non-empty 1-D sequence")
        if (sizes < 1).any():
            raise ValueError(f"group sizes must be integers >= 1, got {sizes.tolist()}")
        N = int(sizes.sum())
        if N < 2:
            raise ValueError(f"total N must be an integer >= 2, got {N}")
        sizes.setflags(write=False)

        # Between counts (off-diagonal), then within counts (diagonal).
        n = sizes.astype(np.float64)
        a, b = n[:, None], n[None, :]
        NN1 = N * (N - 1.0)
        mean = 2.0 * a * b / N
        second = (
            2.0 * a * b / N
            + 2.0 * a * b * (a + b - 2.0) / NN1
            + 4.0 * a * (a - 1.0) * b * (b - 1.0) / NN1
        )
        w = n * (n - 1.0)
        np.fill_diagonal(mean, w / N)
        np.fill_diagonal(
            second, w / N + 2.0 * w * (n - 2.0) / NN1 + w * (n - 2.0) * (n - 3.0) / NN1
        )
        var = np.maximum(second - mean * mean, 0.0)  # clipped against roundoff
        lower = np.tril_indices(sizes.size, -1)
        for table in (mean, var):
            table[lower] = table.T[lower]  # mirror (i < j) so the tables are exactly symmetric
            table.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "total", N)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @classmethod
    def from_assignment(cls, assignment: GroupAssignment) -> "MomentContext":
        return cls(assignment.sizes)

    @property
    def n_groups(self) -> int:
        return int(self.sizes.size)

    def pair_var(self, what: str) -> np.ndarray:
        """Between-count variances in ``np.triu_indices(k, 1)`` pair order.

        Raises naming the first pair whose variance is zero, for which
        ``what`` (e.g. "z-score undefined") holds.
        """
        iu, ju = np.triu_indices(self.n_groups, 1)
        var = self.var[iu, ju]
        zero = np.flatnonzero(var <= 0.0)
        if zero.size:
            p = zero[0]
            raise ValueError(f"null variance of pair ({iu[p] + 1},{ju[p] + 1}) is zero; {what}")
        return var

    @functools.cached_property
    def sigma(self) -> np.ndarray:
        """Null covariance of the between counts, as documented at :func:`build_sigma`."""
        n = self.sizes.astype(np.float64)
        N = self.total
        iu, ju = np.triu_indices(self.n_groups, 1)
        K = iu.size
        incidence = np.zeros((K, self.n_groups))
        incidence[np.arange(K), iu] = incidence[np.arange(K), ju] = 1.0
        shared = (incidence / n) @ incidence.T  # 1/n_g where pairs share g, else 0
        P = n[iu] * n[ju]
        sigma = np.outer(P, P) * (4.0 / (N * N * (N - 1.0)) - 2.0 * shared / (N * (N - 1.0)))
        sigma[np.diag_indices(K)] = self.var[iu, ju]
        sigma.setflags(write=False)
        return sigma


def build_sigma(ctx: MomentContext) -> np.ndarray:
    """Null covariance matrix of all between-group counts: ``ctx.sigma``.

    Pairs run in ``np.triu_indices(k, 1)`` order, (1,2), (1,3), ...,
    (k-1,k), as in :meth:`WeightMatrix.vector`.  With P_p = n_a n_b the
    size product of pair p = (a, b), two counts sharing no group have
    covariance 4 P_p P_q / (N^2 (N-1)); sharing group g subtracts
    2 P_p P_q / (n_g N (N-1)).  The diagonal holds the pair variances.
    Exactly symmetric by construction.  The matrix is built on the
    context's first call and returned read-only on every later one.
    """
    return ctx.sigma


@dataclass(frozen=True)
class EnumeratedMoments:
    """Exact enumeration moments of every pairwise count.

    ``mean`` is a symmetric k x k table indexed by 0-based group ids;
    ``product_moment`` returns E{S(pair1) * S(pair2)} for any two
    (possibly within, m == l) pairs, so a pair with itself gives its raw
    second moment.
    """

    mean: np.ndarray
    _products: np.ndarray
    _slot: np.ndarray
    n_arrangements: int

    def mean_of(self, m: int, l: int) -> float:
        return float(self.mean[m - 1, l - 1])

    def product_moment(self, pair1, pair2) -> float:
        s1 = self._slot[min(pair1) - 1, max(pair1) - 1]
        s2 = self._slot[min(pair2) - 1, max(pair2) - 1]
        return float(self._products[s1, s2])

    def cov_of(self, pair1, pair2) -> float:
        return self.product_moment(pair1, pair2) - self.mean_of(*pair1) * self.mean_of(*pair2)


def enumerate_null_moments(assignment: GroupAssignment) -> EnumeratedMoments:
    """Exact null moments by exhausting all distinct label arrangements.

    Counts along a path depend only on the label sequence, so the
    arrangement space is the N!/(n_1!...n_k!) distinct multiset
    permutations rather than all N! node orders.  Guarded to N <= 8.
    """
    N = assignment.n_total
    if N > _ENUM_MAX:
        raise ValueError(f"enumeration oracle is limited to N <= {_ENUM_MAX}, got N={N}")
    k = assignment.n_groups
    arrangements = np.array(
        sorted(set(itertools.permutations(assignment.labels.tolist()))), dtype=np.int64
    )
    M = arrangements.shape[0]

    # Slot every unordered pair (incl. within, m == l) into one vector index.
    iu, ju = np.triu_indices(k)
    slot = np.zeros((k, k), dtype=np.int64)
    slot[iu, ju] = np.arange(iu.size)
    slot += np.triu(slot, 1).T

    a = arrangements[:, :-1] - 1
    b = arrangements[:, 1:] - 1
    pos = slot[np.minimum(a, b), np.maximum(a, b)]
    vec = np.zeros((M, iu.size), dtype=np.int64)
    np.add.at(vec, (np.arange(M)[:, None], pos), 1)

    mean_vec = vec.mean(axis=0)
    products = (vec.T @ vec) / M

    mean = np.zeros((k, k))
    mean[iu, ju] = mean_vec
    mean += np.triu(mean, 1).T
    for arr in (mean, products, slot):
        arr.setflags(write=False)
    return EnumeratedMoments(mean, products, slot, M)
