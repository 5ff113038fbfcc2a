"""Permutation-null moments and covariances of path edge counts.

Under uniform permutation of group labels over a fixed path, the
between- and within-group edge counts have closed-form means and
variances depending only on the group sizes (Chen & Friedman, JASA
2017).  Each variance is written as one product of integers over
N^2 (N-1): 2ab [N (N-1-a-b) + 2ab] for the count between groups of
sizes a and b, n (n-1) (N-n) (N-n+1) for the count within a group of
size n.  While N^2 < 2^53 every factor is exact in float64, so each
entry is within a few roundings of its exact value, nonnegative, and
symmetric in its two groups by construction.  This module is the one
place those closed forms live: :class:`MomentContext` carries the
k x k mean and variance tables of every count and, built on first use,
the between counts' means in pair order and their covariance matrix
(:func:`build_sigma`) that the minimum test reads.  The weighted sum
needs only its quadratic form w' Sigma w, which :func:`_weighted_var`
writes in O(K) from the pair variances and per-group sums, so no
K x K matrix is built for it.  An exhaustive enumeration
oracle (:func:`enumerate_null_moments`) recomputes every moment exactly
for small N by iterating over all distinct label arrangements.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .cost import _check_memory
from .counts import GroupAssignment

__all__ = [
    "MomentContext",
    "build_sigma",
    "EnumeratedMoments",
    "enumerate_null_moments",
]

_ENUM_MAX = 8


@functools.lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, the between-pair order, built once per k and read-only."""
    iu, ju = np.triu_indices(k, 1)
    for index in (iu, ju):
        index.setflags(write=False)
    return iu, ju


def _sigma_scales(N: int) -> tuple[float, float]:
    """Sigma's two constants, a = 4 / (N^2 (N-1)) and m = N (N-1) / 2.

    Off the diagonal, Sigma_pq = P_p P_q (a - s_pq / m), where P_p = n_a n_b
    for pair p = (a, b) and s_pq is 1/n_g where pairs p and q share group g,
    else 0.  m is an integer, exact in float64 while N^2 < 2^53.
    """
    return 4.0 / (N * N * (N - 1.0)), N * (N - 1.0) / 2.0


def _between(a, b, N: int):
    """Null mean and variance of the count between two groups of sizes a and b among N.

    The mean is 2ab / N and the variance 2ab [N (N-1-a-b) + 2ab] / (N^2 (N-1)).
    The bracket is an integer >= 0, exact in float64 while N^2 < 2^53, so the
    variance is >= 0, zero only where the count is constant (a = b = 1 = N/2),
    and takes the same bits for (b, a) as for (a, b).
    """
    ab = a * b
    return 2.0 * ab / N, 2.0 * ab * (N * (N - 1.0 - a - b) + 2.0 * ab) / (N * N * (N - 1.0))


@dataclass(frozen=True)
class MomentContext:
    """Group sizes n_1..n_k, their total N, and every count's null moments.

    ``mean[i, j]`` and ``var[i, j]`` are the null mean and variance of the
    edge count S(G_{i+1}, G_{j+1}) (0-based indices, symmetric); the
    diagonal holds the within-group counts S(G_i, G_i).  Each entry is
    the module's product form, written once (:func:`_between` off the
    diagonal), so the tables are exactly symmetric and every variance is
    >= 0, zero only where the count is constant.  ``sigma`` is the
    covariance of the between counts, built on first use.  All three
    tables are read-only.
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

        n = sizes.astype(np.float64)
        mean, var = _between(n[:, None], n[None, :], N)
        w = n * (n - 1.0)
        np.fill_diagonal(mean, w / N)
        np.fill_diagonal(var, w * ((N - n) * (N - n + 1.0)) / (N * N * (N - 1.0)))
        for table in (mean, var):
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
        iu, ju = _pairs(self.n_groups)
        var = self.var[iu, ju]
        zero = np.flatnonzero(var <= 0.0)
        if zero.size:
            p = zero[0]
            raise ValueError(f"null variance of pair ({iu[p] + 1},{ju[p] + 1}) is zero; {what}")
        return var

    @functools.cached_property
    def pair_mean(self) -> np.ndarray:
        """Between-count null means in ``np.triu_indices(k, 1)`` pair order.

        Built on first use and returned read-only on every later one.
        """
        iu, ju = _pairs(self.n_groups)
        mean = self.mean[iu, ju]
        mean.setflags(write=False)
        return mean

    @functools.cached_property
    def sigma(self) -> np.ndarray:
        """Null covariance of the between counts, as documented at :func:`build_sigma`.

        Raises ``ValueError`` naming k and K, before any K x K matrix is
        allocated, where the build would not fit in physical memory.  It
        holds four K x K matrices at once (``shared``, its scaled copy,
        the outer product and their product) and two K x k incidence
        tables.
        """
        n = self.sizes.astype(np.float64)
        N, k = self.total, self.n_groups
        iu, ju = _pairs(k)
        K = iu.size
        _check_memory(8 * K * (4 * K + 2 * k), f"k={k} groups (K={K} pairs)", "their covariance")
        incidence = np.zeros((K, k))
        incidence[np.arange(K), iu] = incidence[np.arange(K), ju] = 1.0
        shared = (incidence / n) @ incidence.T  # 1/n_g where pairs share g, else 0
        P = n[iu] * n[ju]
        a, m = _sigma_scales(N)
        sigma = np.outer(P, P) * (a - shared / m)
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
    The minimum test reads it; the weighted sum needs only w' Sigma w
    (:func:`_weighted_var`).
    """
    return ctx.sigma


# A weighted-sum variance at most this many epsilons of its terms' magnitudes
# is rounding residue, and read as zero: the largest residue seen where the
# sum is constant (all-singleton groups, equal weights, k up to 4000) was 0.8.
_ROUNDING = 64


def _weighted_var(ctx: MomentContext, w: np.ndarray) -> float:
    """Null variance w' Sigma w of the weighted between sum, in O(K) time and memory.

    ``w`` holds nonnegative weights in pair order.  With x_p = w_p P_p and
    a and m of :func:`_sigma_scales`,

        w' Sigma w = sum_p w_p^2 var_p + 2a sum_{p<q} x_p x_q
                     - (2/m) sum_g (1/n_g) sum_{p<q, both containing g} x_p x_q,

    where var_p is the pair's variance in ``ctx.var``.  Each sum over
    p < q is taken against running sums of the x, never as a difference
    of squares, which cancels where one pair dominates its group.  The
    weights are scaled by the largest before squaring, so the form
    overflows only where its value does (``inf``).  A value at most
    ``_ROUNDING`` epsilons of the sum of its terms' magnitudes, as where
    the weighted sum is constant, is returned as 0.0.
    """
    n = ctx.sizes.astype(np.float64)
    k = ctx.n_groups
    iu, ju = _pairs(k)
    a, m = _sigma_scales(ctx.total)
    top = float(w.max())
    v = w / top
    x = v * (n[iu] * n[ju])
    X = np.zeros((k, k))  # row g holds the x of the pairs that contain g
    X[iu, ju] = X[ju, iu] = x
    diagonal = np.sum(v * v * ctx.var[iu, ju])
    every = 2.0 * a * (x[1:] @ np.cumsum(x)[:-1])
    shared = 2.0 * np.sum(np.einsum("ij,ij->i", X[:, 1:], np.cumsum(X, axis=1)[:, :-1]) / n) / m
    value = diagonal + every - shared
    if value <= _ROUNDING * np.finfo(np.float64).eps * (diagonal + every + shared):
        return 0.0
    return float(value * top * top)


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
