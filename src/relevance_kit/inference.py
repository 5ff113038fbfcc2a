"""Hypothesis tests on between-group edge counts.

Two one-sided tests share the permutation-null moments, which they read
from the tables of :class:`~relevance_kit.moments.MomentContext` and from
:func:`~relevance_kit.moments.build_sigma` (re-exported here); no closed
form is written out in this module.  The weighted-sum test aggregates
all between-group counts into a single asymptotically normal statistic,
and the minimum test takes the smallest weighted centered count, whose
null tail is a multivariate-normal orthant probability.  That orthant
probability is computed natively by :func:`mvn_upper_tail`, a
quasi-Monte-Carlo integrator using the separation-of-variables transform
of Genz (reordered Cholesky plus a randomized Richtmyer lattice) that
builds each lattice row as it integrates over it.  Its results are
memoized in a bounded LRU cache keyed by the bytes of the marginalized
Sigma, the thresholds and the integration settings, so the repeated
thresholds of a power study integrate once.  The minimum test's level-
alpha critical value is the root of that tail, found on the probit scale
by Brent's method from a bracket the marginals give.
:func:`permutation_pvalue` offers an exact-in-the-limit Monte-Carlo
fallback that holds the path fixed and re-draws label arrangements, all
from one ``np.random.default_rng(seed)`` stream per call; a replicate
whose statistic ties the observed one counts as at or below it.  One
call, ``permutation_pvalue(path, groups, w, B, seed)``, returns both
p-values, ``{"weighted_sum": p, "minimum": p}``; edges are counted by
:mod:`~relevance_kit.counts`, never here.

Both tests reject for small statistics: under a location or scale
alternative the path crosses between samples less often than permutation
chance predicts.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .counts import GroupAssignment, count_edges, tabulate
from .moments import MomentContext, build_sigma
from .shp import check_path

__all__ = [
    "WeightMatrix",
    "TestResult",
    "weighted_sum_statistic",
    "weighted_sum_test",
    "minimum_statistic",
    "minimum_test",
    "build_sigma",
    "mvn_upper_tail",
    "permutation_pvalue",
]

_MVN_SEED = 20210802  # fixed default so every report is reproducible
_MVN_MEMO_SIZE = 256  # integrals mvn_upper_tail remembers: 4 MiB of Sigma keys at K=45


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric k x k nonnegative weights for between-group pairs.

    The diagonal is unused and stored as zero.  At least one
    off-diagonal weight must be positive.  Zero weights exclude a pair
    from both statistics, which is how subsample analyses focus on a
    few comparisons of interest.
    """

    grid: np.ndarray
    _vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.grid, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
            raise ValueError(f"weights must be a k x k grid with k >= 2, got shape {w.shape}")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        if np.abs(w - w.T).max() > 1e-12:
            raise ValueError("weight grid must be symmetric")
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        if not (w > 0).any():
            raise ValueError("at least one off-diagonal weight must be positive")
        iu, ju = np.triu_indices(w.shape[0], 1)
        vector = w[iu, ju]
        for table in (w, vector):
            table.setflags(write=False)
        object.__setattr__(self, "grid", w)
        object.__setattr__(self, "_vector", vector)

    @property
    def k(self) -> int:
        return int(self.grid.shape[0])

    @classmethod
    def default(cls, ctx: MomentContext) -> "WeightMatrix":
        """Inverse null standard deviation per pair: w = Var(S)^(-1/2)."""
        k = ctx.n_groups
        iu, ju = np.triu_indices(k, 1)
        w = np.zeros((k, k))
        w[iu, ju] = w[ju, iu] = ctx.pair_var("default weights undefined") ** -0.5
        return cls(w)

    @classmethod
    def unit(cls, k: int) -> "WeightMatrix":
        w = np.ones((k, k))
        return cls(w)

    def with_zeroed_pairs(self, pairs) -> "WeightMatrix":
        """Copy with the listed 1-based (m, l) pairs set to zero weight."""
        w = np.array(self.grid)
        for m, l in pairs:
            m, l = int(m), int(l)
            if not (1 <= m <= self.k and 1 <= l <= self.k and m != l):
                raise ValueError(f"invalid pair ({m},{l}) for k={self.k}")
            w[m - 1, l - 1] = w[l - 1, m - 1] = 0.0
        return WeightMatrix(w)

    def vector(self) -> np.ndarray:
        """Weights of pairs (1,2), (1,3), ..., (k-1,k): the order of :func:`build_sigma`.

        Built once with the grid; read-only.
        """
        return self._vector


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test.

    ``null_mean``/``null_sd`` are populated for the weighted-sum test
    only; the minimum test's null is not a single normal.
    """

    statistic: float
    p_value: float
    critical_value: float
    reject: bool
    method: str
    alpha: float
    null_mean: Optional[float] = None
    null_sd: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _warn_singletons(ctx: MomentContext) -> None:
    if (ctx.sizes == 1).any():
        warnings.warn(
            "some groups have a single observation; asymptotic approximations "
            "are unreliable at that size — consider permutation_pvalue",
            RuntimeWarning,
            stacklevel=3,
        )


def _check_table(table, k: int) -> np.ndarray:
    t = np.asarray(table, dtype=np.float64)
    if t.shape != (k, k):
        raise ValueError(f"count table shape {t.shape} does not match k={k}")
    return t


def _check_k(w: WeightMatrix, ctx: MomentContext) -> None:
    if ctx.n_groups != w.k:
        raise ValueError(f"weight grid is {w.k} x {w.k} but context has k={ctx.n_groups}")


# Both statistics are written once, row-wise over between counts in
# np.triu_indices pair order, so one table and a batch of permutation
# replicates are scored by the same arithmetic.


def _weighted_sums(counts: np.ndarray, wvec: np.ndarray) -> np.ndarray:
    return (wvec * counts).sum(axis=-1)


def _minima(counts: np.ndarray, wvec: np.ndarray, mean: np.ndarray) -> np.ndarray:
    pos = wvec > 0
    return (wvec[pos] * (counts[..., pos] - mean[pos])).min(axis=-1)


def weighted_sum_statistic(table, w: WeightMatrix) -> float:
    """Sum over pairs m < l of w[m][l] * counts[m][l]."""
    t = _check_table(table, w.k)
    iu, ju = np.triu_indices(w.k, 1)
    return float(_weighted_sums(t[iu, ju], w.vector()))


def weighted_sum_test(table, w: WeightMatrix, ctx: MomentContext, alpha: float = 0.05) -> TestResult:
    """One-sided lower-tail test on the weighted sum of between counts.

    The null mean and variance come from the closed-form moments (the
    variance is the full quadratic form over the pair covariance
    matrix, not a sum of marginal variances).  Rejects when the
    statistic falls below ``null_mean - z_alpha * null_sd``.
    """
    alpha = _check_alpha(alpha)
    _check_k(w, ctx)
    _warn_singletons(ctx)
    stat = weighted_sum_statistic(table, w)
    wvec = w.vector()
    iu, ju = np.triu_indices(w.k, 1)
    null_mean = float(wvec @ ctx.mean[iu, ju])
    null_var = float(wvec @ build_sigma(ctx) @ wvec)
    if null_var <= 0.0:
        raise ValueError("null variance of the weighted sum is zero; test is degenerate")
    null_sd = null_var ** 0.5
    p = float(ndtr((stat - null_mean) / null_sd))
    critical = null_mean + ndtri(alpha) * null_sd
    return TestResult(
        statistic=stat,
        p_value=p,
        critical_value=critical,
        reject=bool(stat < critical),
        method="weighted_sum",
        alpha=alpha,
        null_mean=null_mean,
        null_sd=null_sd,
    )


def minimum_statistic(table, w: WeightMatrix, ctx: MomentContext) -> float:
    """Smallest weighted centered count over pairs with positive weight."""
    _check_k(w, ctx)
    t = _check_table(table, w.k)
    iu, ju = np.triu_indices(w.k, 1)
    return float(_minima(t[iu, ju], w.vector(), ctx.mean[iu, ju]))


# --------------------------------------------------------------------------
# Multivariate-normal upper-tail engine


def _first_primes(m: int) -> np.ndarray:
    """First m primes by growing sieve."""
    if m <= 0:
        return np.array([], dtype=np.int64)
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= m:
            return primes[:m].astype(np.int64)
        limit *= 4


def _norm_pdf(x):
    """Standard normal density, in the same arithmetic as ``scipy.stats.norm.pdf``."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _reorder_cholesky(sigma: np.ndarray, upper: np.ndarray):
    """Pivoted Cholesky with limit reordering for orthant integration.

    At each step the remaining variable with the smallest conditional
    probability mass below its limit is factored next; conditioning uses
    the truncated-normal mean of the already-factored variables.  This
    ordering reduces the variance of the separation-of-variables
    integrand.  Returns the lower factor and the permuted limits.
    """
    n = sigma.shape[0]
    C = np.array(sigma, dtype=np.float64)
    u = np.array(upper, dtype=np.float64)
    y = np.zeros(n)
    eps = 1e-12
    for i in range(n):
        best_j, best_e, best_ut = i, np.inf, 0.0
        for j in range(i, n):
            denom2 = C[j, j] - (C[j, :i] ** 2).sum()
            num = u[j] - C[j, :i] @ y[:i]
            if denom2 > eps:
                ut = num / np.sqrt(denom2)
            else:
                ut = np.inf if num >= 0 else -np.inf
            e = ndtr(ut)
            if e < best_e:
                best_j, best_e, best_ut = j, e, ut
        if best_j != i:
            C[[i, best_j], :] = C[[best_j, i], :]
            C[:, [i, best_j]] = C[:, [best_j, i]]
            u[[i, best_j]] = u[[best_j, i]]
        diag2 = C[i, i] - (C[i, :i] ** 2).sum()
        if diag2 > eps:
            C[i, i] = np.sqrt(diag2)
            for j in range(i + 1, n):
                C[j, i] = (C[j, i] - C[j, :i] @ C[i, :i]) / C[i, i]
        else:
            # Degenerate direction: variable is determined by its
            # predecessors; keep a zero column so it contributes a
            # 0/1 factor through its (infinite) scaled limit.
            C[i:, i] = 0.0
            C[i, i] = 0.0
        y[i] = -_norm_pdf(best_ut) / best_e if best_e > 1e-300 else best_ut
    return C, u


def mvn_upper_tail(
    sigma,
    thresholds,
    *,
    n_points: int = 10_000,
    n_shifts: int = 12,
    error_target: float = 1e-4,
    seed: int = _MVN_SEED,
    full_output: bool = False,
):
    """P(Z > thresholds) for Z ~ N(0, sigma), componentwise strict.

    Components with threshold -inf are always satisfied and are
    marginalized out before integration.  The remaining orthant
    probability is evaluated by the separation-of-variables transform
    over a randomized Richtmyer lattice; the point count doubles until
    the shift-to-shift standard error meets ``error_target`` (at most
    three doublings).  Each shift works on an (n - 1, points) array, one
    contiguous row per variable, and builds lattice row i only when
    variable i is reached.

    The integral is a pure function of the marginalized Sigma, the
    thresholds, ``n_points``, ``n_shifts``, ``error_target`` and
    ``seed``, so it is memoized: the last ``_MVN_MEMO_SIZE`` results are
    kept, keyed by copies of those inputs, and a repeated call returns
    the same ``(probability, standard_error)`` without integrating.  The
    argument checks run on every call; a remembered call skips only the
    factorization and the integration.

    Parameters
    ----------
    sigma : (K, K) array_like
        Covariance matrix, symmetric positive semidefinite.  A diagonal
        jitter of 1e-10 is attempted once before rejecting a
        numerically indefinite matrix.
    thresholds : (K,) array_like
        Lower bounds; entries of -inf drop their component.
    seed : int
        Seed of the lattice shifts; part of the memo key.
    full_output : bool
        If true, return ``(probability, standard_error)``.

    Returns
    -------
    float or (float, float)
    """
    S = np.asarray(sigma, dtype=np.float64)
    t = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] != t.size:
        raise ValueError(f"sigma shape {S.shape} incompatible with {t.size} thresholds")
    if np.isnan(t).any():
        raise ValueError("thresholds must not be NaN")
    if np.abs(S - S.T).max() > 1e-8 * max(1.0, np.abs(S).max()):
        raise ValueError("sigma must be symmetric")
    if np.isposinf(t).any():
        out = (0.0, 0.0)
        return out if full_output else 0.0
    keep = ~np.isneginf(t)
    S = S[np.ix_(keep, keep)]
    t = t[keep]
    n = t.size
    if n == 0:
        return (1.0, 0.0) if full_output else 1.0
    if n == 1:
        p = float(ndtr(-t[0] / np.sqrt(S[0, 0]))) if S[0, 0] > 0 else float(t[0] < 0)
        return (p, 0.0) if full_output else p
    out = _orthant(S.tobytes(), t.tobytes(), int(n_points), int(n_shifts),
                   float(error_target), int(seed))
    return out if full_output else out[0]


@functools.lru_cache(maxsize=_MVN_MEMO_SIZE)
def _orthant(sigma_bytes: bytes, thresholds_bytes: bytes, n_points: int, n_shifts: int,
             error_target: float, seed: int) -> tuple[float, float]:
    """(P(Z > t), standard error) for n >= 2 components, from byte copies of Sigma and t."""
    t = np.frombuffer(thresholds_bytes)
    n = t.size
    S = np.frombuffer(sigma_bytes).reshape(n, n)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        S = S + 1e-10 * np.eye(n)
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "sigma is not positive semidefinite within tolerance"
            ) from exc

    # P(Z > t) = P(-Z < -t) = CDF of N(0, S) at upper limits -t.
    C, u = _reorder_cholesky(S, -t)
    rng = np.random.default_rng(seed)
    sqrt_primes = np.sqrt(_first_primes(n - 1).astype(np.float64))
    e0 = ndtr(u[0] / C[0, 0]) if C[0, 0] > 0 else float(u[0] >= 0)

    tiny = 1e-300
    pts = int(n_points)
    for _ in range(4):
        estimates = np.empty(n_shifts)
        j = np.arange(1, pts + 1, dtype=np.float64)
        Y = np.empty((n - 1, pts))
        for s, shift in enumerate(rng.random((n_shifts, n - 1))):
            f, e = np.full(pts, e0), e0
            for i in range(n):
                if i > 0:
                    num = u[i] - C[i, :i] @ Y[:i]
                    e = ndtr(num / C[i, i]) if C[i, i] > 0 else (num >= 0).astype(np.float64)
                    f = f * e
                if i < n - 1:
                    x = np.abs(2.0 * np.modf(j * sqrt_primes[i] + shift[i])[0] - 1.0)
                    Y[i] = ndtri(np.clip(x * e, tiny, 1.0 - 1e-16))
            estimates[s] = f.mean()
        prob = float(estimates.mean())
        err = float(estimates.std(ddof=1) / np.sqrt(n_shifts))
        if err <= error_target:
            break
        pts *= 2
    return min(max(prob, 0.0), 1.0), err


# --------------------------------------------------------------------------
# Minimum test

_CRIT_CACHE: dict[tuple, float] = {}


def _min_tail(x: float, sigma_pos: np.ndarray, w_pos: np.ndarray, **mvn_kw) -> float:
    """P(min of weighted centered counts > x) under the null."""
    return mvn_upper_tail(sigma_pos, x / w_pos, **mvn_kw)


def _min_critical(sigma_pos: np.ndarray, w_pos: np.ndarray, alpha: float, key: tuple) -> float:
    """Root z of 1 - P(min > z) = alpha, by Brent's method; cached per config.

    P(min <= z) is at least every marginal P(w_i Z_i <= z) and at most
    their sum, so with s_i = w_i sd(Z_i) the root lies in
    [max(s) ndtri(alpha/K), min(s) ndtri(alpha)].  The bracket is padded
    by a tenth of max(s), since its ends meet when K = 1, and widened
    outward if the integrated tail still shows no sign change.

    Brent's method runs on the probit scale, ndtri(P(min <= z)) -
    ndtri(alpha): the root is the same, but the function is nearly
    linear in z (exactly so when K = 1), so its interpolation steps
    converge in fewer integrations.
    """
    if key in _CRIT_CACHE:
        return _CRIT_CACHE[key]
    probit_alpha = float(ndtri(alpha))

    @functools.lru_cache(maxsize=None)  # brentq re-evaluates the bracket ends
    def g(z: float) -> float:
        return float(ndtri(1.0 - _min_tail(z, sigma_pos, w_pos))) - probit_alpha

    s = w_pos * np.sqrt(np.diag(sigma_pos))
    pad = 0.1 * float(s.max())
    lo = float(s.max() * ndtri(alpha / s.size)) - pad
    hi = float(s.min() * ndtri(alpha)) + pad
    step = max(hi - lo, 1.0)
    g_lo, g_hi = g(lo), g(hi)
    for _ in range(60):
        if g_lo < 0.0:
            break
        lo, step = lo - step, 2.0 * step
        g_lo = g(lo)
    else:
        raise FloatingPointError("could not bracket the minimum-test critical value from below")
    for _ in range(60):
        if g_hi > 0.0:
            break
        hi, step = hi + step, 2.0 * step
        g_hi = g(hi)
    else:
        raise FloatingPointError("could not bracket the minimum-test critical value from above")
    crit = float(brentq(g, lo, hi, xtol=1e-6))
    _CRIT_CACHE[key] = crit
    return crit


def minimum_test(table, w: WeightMatrix, ctx: MomentContext, alpha: float = 0.05) -> TestResult:
    """One-sided test on the minimum weighted centered count.

    The p-value is 1 - P(Z > x / w) where Z carries the joint null
    covariance of the positive-weight counts: the minimum exceeds x
    exactly when every weighted coordinate does, and dividing by the
    (positive) weights moves the comparison onto the raw-count scale.
    Zero-weight pairs impose no constraint and are dropped.  Rejects
    when the statistic is at or below the critical value, the level-
    alpha root of the same tail function.  Raises ``ValueError`` when
    every positive-weight pair has zero null variance, as for sizes
    [1, 1], since the tail is then a step function with no level-alpha
    root.
    """
    alpha = _check_alpha(alpha)
    _warn_singletons(ctx)
    stat = minimum_statistic(table, w, ctx)
    wvec = w.vector()
    pos = wvec > 0
    sigma = build_sigma(ctx)
    sigma_pos = sigma[np.ix_(pos, pos)]
    if (np.diag(sigma_pos) <= 0.0).all():
        raise ValueError("null variance of every positive-weight pair is zero; test is degenerate")
    w_pos = wvec[pos]
    p = 1.0 - _min_tail(stat, sigma_pos, w_pos)
    p = min(max(p, 0.0), 1.0)
    key = (
        tuple(ctx.sizes.tolist()),
        tuple(w_pos.tolist()),
        tuple(np.flatnonzero(pos).tolist()),
        alpha,
    )
    critical = _min_critical(sigma_pos, w_pos, alpha, key)
    return TestResult(
        statistic=stat,
        p_value=p,
        critical_value=critical,
        reject=bool(stat <= critical),
        method="minimum",
        alpha=alpha,
    )


# --------------------------------------------------------------------------
# Permutation fallback

_PERM_CHUNK_CELLS = 2 ** 17  # labels (or count slots) per batch of replicates: 1 MB of int64


def permutation_pvalue(
    path,
    groups: GroupAssignment,
    w: WeightMatrix,
    B: int,
    seed: int = 0,
) -> dict[str, float]:
    """Lower-tail Monte-Carlo p-values, ``{"weighted_sum": p, "minimum": p}``.

    The path is held fixed.  All replicates come from one stream,
    ``np.random.default_rng(seed)``: replicate r relabels the nodes by
    the r-th ``rng.permutation(N)`` draw of that stream, so the result
    depends on ``seed`` and ``B`` alone, not on how replicates are
    batched.  Each batch is tabulated once and scored by both
    statistics.  A replicate counts when its statistic is at or below
    the observed one; "at" allows a relative 100 machine epsilons, as in
    ``scipy.stats.permutation_test``, so exact ties are not lost to
    rounding.  Add-one smoothing keeps each p-value strictly positive.
    """
    B = int(B)
    if B < 100:
        raise ValueError(f"need at least 100 replicates, got B={B}")
    path = check_path(path, groups.n_total)
    ctx = MomentContext.from_assignment(groups)
    _check_k(w, ctx)
    k, N = ctx.n_groups, ctx.total
    iu, ju = np.triu_indices(k, 1)
    wvec = w.vector()
    mean = ctx.mean[iu, ju]
    statistics = {
        "weighted_sum": lambda counts: _weighted_sums(counts, wvec),
        "minimum": lambda counts: _minima(counts, wvec, mean),
    }

    observed = count_edges(path, groups)[iu, ju]
    threshold = {}
    for name, stat in statistics.items():
        value = float(stat(observed))
        threshold[name] = value + 100.0 * np.finfo(np.float64).eps * abs(value)

    rng = np.random.default_rng(seed)
    rows = max(1, _PERM_CHUNK_CELLS // max(N, k * k))
    at_or_below = dict.fromkeys(statistics, 0)
    for start in range(0, B, rows):
        n = min(rows, B - start)
        on_path = rng.permuted(np.broadcast_to(groups.labels, (n, N)), axis=1)[:, path]
        counts = tabulate(on_path, k)[:, iu, ju]
        for name, stat in statistics.items():
            at_or_below[name] += int(np.count_nonzero(stat(counts) <= threshold[name]))
    return {name: (1 + hits) / (B + 1) for name, hits in at_or_below.items()}
