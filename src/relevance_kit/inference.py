"""Hypothesis tests on between-group edge counts.

Two one-sided tests share the permutation-null moments, which they read
from the tables of :class:`~relevance_kit.moments.MomentContext` and from
:func:`~relevance_kit.moments.build_sigma` (re-exported here); no closed
form is written out in this module.  The weighted-sum test aggregates
all between-group counts into a single asymptotically normal statistic,
and the minimum test takes the smallest weighted centered count, whose
null tail is a multivariate-normal orthant probability.  That orthant
probability is computed natively by :func:`mvn_upper_tail`.  Up to
three components, which covers k = 2 and the paper's k = 3 (K = 3
pairs), it is exact and deterministic: a normal CDF, a bivariate one by
Owen's T, or a trivariate one by Plackett's reduction to a one-
dimensional integral, as Genz (Stat. Comput. 2004) computes it with
adaptive Gauss-Legendre rules.  Beyond that it is a quasi-Monte-Carlo
integrator using the separation-of-variables transform of Genz
(reordered Cholesky plus a randomized Richtmyer lattice) that builds
each lattice row as it integrates over it.  The reordering conditions
all remaining variables at once at each step, and the lattice rows
reuse a few preallocated buffers.  Its results are memoized in a
bounded LRU cache keyed by the bytes of the marginalized Sigma, the
thresholds and the integration settings, so the repeated thresholds of
a power study integrate once.  The minimum test's level-alpha critical
value is the root of that tail on the probit scale, found in two
stages.  Beyond three pairs the pre-root needs no integration: it is
the root of the second-order inclusion-exclusion lower bound B2 = S1 -
S2, built from K normal CDFs and K(K-1)/2 bivariate normal CDFs in
closed form (Owen's T); up to three it is the root of the exact tail.
Newton steps on the full-precision tail, with B2's slope, finish it; a
step short enough, between two points the engine integrates with the
same factor, ends it without a confirming integration, so a cold root
takes one or two full-precision integrations (Brent's method on the
full-precision tail, from a bracket the marginals give, should B2 not
reach alpha, its slope be unusable or the finish fail or leave the
bracket).  On an exact tail the finish's first step is accepted, and
the critical value is its root to about 1e-12.
:func:`permutation_pvalue` offers an exact-in-the-limit Monte-Carlo
fallback.  Under the permutation null the labels along any fixed path
form a uniform arrangement, so its reference draws arrangements of the
design's labels, from one ``np.random.default_rng(seed)`` stream per
call, and reads no path or data; a replicate whose statistic ties the
observed one counts as at or below it.  One call,
``permutation_pvalue(table, w, ctx, B, seed)``, scores the observed
table and returns both p-values, ``{"weighted_sum": p, "minimum": p}``;
edges are counted by :mod:`~relevance_kit.counts`, never here.

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
from scipy.special import ndtr, ndtri, owens_t

from .counts import count_edges, tabulate  # noqa: F401 -- perfbench/tracing.py wraps inference.count_edges
from .moments import MomentContext, build_sigma

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
_B2_GRID = 17  # points at which the pre-root scans the analytic bracket for B2's first crossing
_ACCEPT_STEP = 1e-4  # Newton step small enough to stop at; see _min_critical
_FINISH_STEPS = 10  # full-precision Newton steps before the root falls back to Brent's method
_EXACT_MAX = 3  # components whose tail mvn_upper_tail computes exactly rather than integrating
_EXACT_STEP = 1e-12  # root tolerance, and Newton step small enough to stop at, on exact tails
# The positive nodes and their weights of the 10-point Gauss-Legendre rule on
# [-1, 1], as scipy.special.roots_legendre(10) gives them; a table, because
# computing the rule pages in about 1 MiB of eigensolver at import.
_GL_X, _GL_W = np.array([
    [0.14887433898163116, 0.4333953941292472, 0.6794095682990244, 0.8650633666889844,
     0.9739065285171717],
    [0.2955242247147533, 0.26926671930999674, 0.21908636251598224, 0.14945134915058053,
     0.06667134430868714],
])
_GL_X = np.concatenate([1.0 - _GL_X[::-1], 1.0 + _GL_X]) / 2.0  # the trivariate integral's rule, on [0, 1]
_GL_W = np.concatenate([_GL_W[::-1], _GL_W]) / 2.0
_TVN_TOL = 1e-14  # error per unit length at which the trivariate integral stops halving
_TVN_HALVINGS = 40  # rounds of halving before it keeps what it has
_TVN_OPEN = 64  # intervals still open at which it keeps what it has


@functools.lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, built once per k and read-only."""
    iu, ju = np.triu_indices(k, 1)
    for index in (iu, ju):
        index.setflags(write=False)
    return iu, ju


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
        iu, ju = _pairs(w.shape[0])
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
        iu, ju = _pairs(k)
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
    ``p_value_standard_error`` is populated for the minimum test only:
    the standard error of its multivariate-normal tail.
    """

    statistic: float
    p_value: float
    critical_value: float
    reject: bool
    method: str
    alpha: float
    null_mean: Optional[float] = None
    null_sd: Optional[float] = None
    p_value_standard_error: Optional[float] = None

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
    iu, ju = _pairs(w.k)
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
    null_mean = float(wvec @ ctx.pair_mean)
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
    iu, ju = _pairs(w.k)
    return float(_minima(t[iu, ju], w.vector(), ctx.pair_mean))


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
    integrand.  Each step conditions all remaining variables as one
    array; ties go to the first of them.  Returns the lower factor and
    the permuted limits.
    """
    n = sigma.shape[0]
    C = np.array(sigma, dtype=np.float64)
    u = np.array(upper, dtype=np.float64)
    y = np.zeros(n)
    eps = 1e-12
    for i in range(n):
        # conditional limits of the remaining variables j >= i, all at once
        denom2 = np.diagonal(C)[i:] - (C[i:, :i] ** 2).sum(axis=1)
        num = u[i:] - C[i:, :i] @ y[:i]
        ut = np.where(num >= 0, np.inf, -np.inf)
        spread = denom2 > eps
        ut[spread] = num[spread] / np.sqrt(denom2[spread])
        e = ndtr(ut)
        best = int(np.argmin(e))
        best_j, best_e, best_ut, diag2 = i + best, e[best], ut[best], denom2[best]
        if best_j != i:
            C[[i, best_j], :] = C[[best_j, i], :]
            C[:, [i, best_j]] = C[:, [best_j, i]]
            u[[i, best_j]] = u[[best_j, i]]
        if diag2 > eps:
            C[i, i] = np.sqrt(diag2)
            C[i + 1:, i] = (C[i + 1:, i] - C[i + 1:, :i] @ C[i, :i]) / C[i, i]
            y[i] = -_norm_pdf(best_ut) / best_e if best_e > 1e-300 else best_ut
        else:
            # Degenerate direction: variable is determined by its
            # predecessors; keep a zero column so it contributes a
            # 0/1 factor through its (infinite) scaled limit.  Its y
            # meets only that zero column, so it stays 0: an infinite
            # one would make 0 * inf = nan in every later limit.
            C[i:, i] = 0.0
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
    marginalized out before integration.  Up to ``_EXACT_MAX`` remaining
    components have an exact tail (:func:`_exact_tail`: a normal CDF, a
    bivariate one by Owen's T, or a trivariate one by Plackett's
    reduction), with a standard error of 0.0; the integration settings
    do not reach it.  A larger orthant probability is evaluated by the
    separation-of-variables transform over a randomized Richtmyer
    lattice; the point count doubles until the shift-to-shift standard
    error meets ``error_target`` (at most three doublings).  Each shift
    works on an (n - 1, points) array, one contiguous row per variable,
    and builds lattice row i only when variable i is reached.

    The integral is a pure function of the marginalized Sigma, the
    thresholds, ``n_points``, ``n_shifts``, ``error_target`` and
    ``seed``, so it is memoized: the last ``_MVN_MEMO_SIZE`` results are
    kept, keyed by copies of those inputs, and a repeated call returns
    the same ``(probability, standard_error)`` without integrating.  The
    argument checks run on every call, the positive-semidefinite one
    with two or more components on the exact path and when the
    integration is not remembered; a remembered call skips only the
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
    if n > _EXACT_MAX:
        out = _orthant(S.tobytes(), t.tobytes(), int(n_points), int(n_shifts),
                       float(error_target), int(seed))
        return out if full_output else out[0]
    if n > 1:
        _jittered(S)  # the check only: the exact tail is that of S itself
    p = _exact_tail(S, t)
    return (p, 0.0) if full_output else p


def _jittered(S: np.ndarray) -> np.ndarray:
    """S, or S + 1e-10 I if only that has a Cholesky factor.

    Raises ``LinAlgError`` when neither has one: Sigma is not positive
    semidefinite within tolerance.
    """
    try:
        np.linalg.cholesky(S)
        return S
    except np.linalg.LinAlgError:
        S = S + 1e-10 * np.eye(S.shape[0])
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "sigma is not positive semidefinite within tolerance"
            ) from exc
        return S


def _factor(S: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reordered factor and limits that :func:`_orthant` integrates P(Z > t) with.

    A numerically indefinite Sigma gets a diagonal jitter of 1e-10 once
    before it is rejected (:func:`_jittered`).  P(Z > t) = P(-Z < -t),
    the CDF of N(0, S) at upper limits -t, which
    :func:`_reorder_cholesky` orders.
    """
    return _reorder_cholesky(_jittered(S), -t)


@functools.lru_cache(maxsize=_MVN_MEMO_SIZE)
def _orthant(sigma_bytes: bytes, thresholds_bytes: bytes, n_points: int, n_shifts: int,
             error_target: float, seed: int) -> tuple[float, float]:
    """(P(Z > t), standard error) for n >= 2 components, from byte copies of Sigma and t."""
    t = np.frombuffer(thresholds_bytes)
    n = t.size
    C, u = _factor(np.frombuffer(sigma_bytes).reshape(n, n), t)
    rng = np.random.default_rng(seed)
    sqrt_primes = np.sqrt(_first_primes(n - 1).astype(np.float64))
    e0 = ndtr(u[0] / C[0, 0]) if C[0, 0] > 0 else float(u[0] >= 0)

    tiny = 1e-300
    pts = int(n_points)
    for _ in range(4):
        estimates = np.empty(n_shifts)
        j = np.arange(1, pts + 1, dtype=np.float64)
        Y = np.empty((n - 1, pts))
        f, e, x, whole = (np.empty(pts) for _ in range(4))
        for s, shift in enumerate(rng.random((n_shifts, n - 1))):
            f.fill(e0)
            e.fill(e0)
            for i in range(n):
                if i > 0:
                    np.matmul(C[i, :i], Y[:i], out=x)
                    np.subtract(u[i], x, out=x)  # the conditional limit's numerator
                    if C[i, i] > 0:
                        ndtr(np.divide(x, C[i, i], out=x), out=e)
                    else:
                        np.greater_equal(x, 0.0, out=e)
                    f *= e
                if i < n - 1:
                    # lattice row |2 frac(j sqrt(p_i) + shift_i) - 1|; x - floor(x) is
                    # modf's fractional part exactly, since x >= 0
                    np.multiply(j, sqrt_primes[i], out=x)
                    x += shift[i]
                    x -= np.floor(x, out=whole)
                    x *= 2.0
                    x -= 1.0
                    np.abs(x, out=x)
                    x *= e
                    ndtri(np.clip(x, tiny, 1.0 - 1e-16, out=x), out=Y[i])
            estimates[s] = f.mean()
        prob = float(estimates.mean())
        err = float(estimates.std(ddof=1) / np.sqrt(n_shifts))
        if err <= error_target:
            break
        pts *= 2
    return min(max(prob, 0.0), 1.0), err


# --------------------------------------------------------------------------
# Exact tails of up to three components


def _owen_term(x: np.ndarray, y: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Owen's T(x, (y - r x) / (x c)) for c > 0, with its limit at x = 0.

    At x = 0 the slope is +-inf by the sign of y; at x = y = 0 it is the
    limit along x = y, (1 - r) / c.
    """
    num = y - r * x
    at_zero = x == 0.0
    a = np.where(at_zero, np.where(num == 0.0, (1.0 - r) / c, np.copysign(np.inf, num)),
                 num / np.where(at_zero, 1.0, x * c))
    return owens_t(x, a)


def _bvn_cdf(h, k, r) -> np.ndarray:
    """P(X <= h, Y <= k) for standard normals X, Y with correlation r.

    Owen (1956); Genz & Bretz (2009), section 2.1: with c = sqrt(1 - r^2),
    Phi2 = (Phi(h) + Phi(k)) / 2 - T(h, (k - r h) / (h c))
    - T(k, (h - r k) / (k c)) - beta, where beta = 1/2 when exactly one
    of h, k is negative and 0 otherwise.  At |r| = 1 it is the limit,
    Phi(min(h, k)) or max(Phi(h) - Phi(-k), 0).  Elementwise over the
    broadcast of its arguments.
    """
    h, k, r = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (h, k, r)))
    out = np.where(r > 0, ndtr(np.minimum(h, k)), np.maximum(ndtr(h) - ndtr(-k), 0.0))
    c = np.sqrt(np.maximum(1.0 - r * r, 0.0))
    inner = c > 0
    h, k, r, c = h[inner], k[inner], r[inner], c[inner]
    out[inner] = (0.5 * (ndtr(h) + ndtr(k)) - _owen_term(h, k, r, c) - _owen_term(k, h, r, c)
                  - 0.5 * ((h < 0) != (k < 0)))
    return out


def _plackett_term(x, theta, r_ac, r_bc: float, ha: float, hb, hc):
    """2 pi dPhi3/dx through r_ab = sin(theta x), where r_ac is the other moving correlation at x.

    Plackett (1954): dPhi3/dr_ab = phi2(ha, hb; r_ab) Phi(u), with u the
    standardized limit hc of X_c given X_a = ha and X_b = hb.  The path's
    dr_ab/dx = theta cos(theta x) cancels phi2's 1 / sqrt(1 - r_ab^2).
    The determinant of the correlation matrix at x is written as
    (1 - r_ab^2)(1 - r_bc^2) - (r_ac - r_ab r_bc)^2, which keeps its
    relative precision as the matrix nears singularity.  Where it is 0,
    Phi(u) is the step it tends to.
    """
    r = np.sin(theta * x)
    rr = np.cos(theta * x) ** 2  # 1 - r_ab^2
    gap = r_ac - r * r_bc
    det = rr * ((1.0 - r_bc) * (1.0 + r_bc)) - gap * gap
    num = hc * rr - ha * gap + hb * (r * r_ac - r_bc)
    spread = det > 0
    u = np.where(spread, num / np.sqrt(rr * np.where(spread, det, 1.0)), np.copysign(np.inf, num))
    return theta * np.exp(-((ha - r * hb) ** 2 / rr + hb * hb) / 2.0) * ndtr(u)


def _gauss_legendre(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``_GL_X`` rule for the integral of f over each [a_i, b_i], from one call of f."""
    width = b - a
    return f(a[:, None] + width[:, None] * _GL_X) @ _GL_W * width


def _adaptive_integral(f) -> float:
    """Integral of f over [0, 1] by Gauss-Legendre rules on halved intervals.

    An interval is done when its rule and the sum of its halves' rules
    differ by at most ``_TVN_TOL`` times its length; the halves' sum is
    kept.  Each round evaluates f once, on the nodes of the halves of
    every interval not yet done (the first also on [0, 1] itself).  The
    halves' sums are kept as they stand after ``_TVN_HALVINGS`` rounds,
    or once more than ``_TVN_OPEN`` intervals are not done, which bounds
    the work where rounding keeps f from meeting the tolerance.
    """
    rules = _gauss_legendre(f, np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.5, 1.0]))
    a, b, whole, halves = np.zeros(1), np.ones(1), rules[:1], rules[1:, None]
    total = 0.0
    for _ in range(_TVN_HALVINGS):
        both = halves.sum(axis=0)
        open_ = np.abs(both - whole) > _TVN_TOL * (b - a)
        if not open_.any() or np.count_nonzero(open_) > _TVN_OPEN:
            break
        total += float(both[~open_].sum())
        m = 0.5 * (a + b)
        a, b = np.concatenate([a[open_], m[open_]]), np.concatenate([m[open_], b[open_]])
        whole = halves[:, open_].ravel()
        m = 0.5 * (a + b)
        halves = _gauss_legendre(f, np.concatenate([a, m]), np.concatenate([m, b])).reshape(2, -1)
    return total + float(halves.sum())


def _tvn_cdf(h: np.ndarray, rho: np.ndarray) -> float:
    """P(X <= h) for standard trivariate normal X with correlation matrix rho.

    Plackett's reduction as Genz (2004) computes it.  The pair of
    largest |r| becomes (2, 3) and keeps its correlation; r12 and r13 go
    to 0 along r = sin(x asin r), x from 1 to 0, where variable 1 is
    independent of the others.  So Phi3 = Phi(h1) Phi2(h2, h3; r23) plus
    the integral over x in [0, 1] of the two ``_plackett_term``, over
    2 pi.  In x the integrand has no 1 / sqrt(1 - r^2) singularity, and
    ``_adaptive_integral`` resolves its sharp end on a nearly singular
    rho.  At r23 = +-1, X3 = +-X2 and Phi3 is a bivariate CDF.
    """
    j, k = max(((0, 1), (0, 2), (1, 2)), key=lambda pair: abs(rho[pair]))
    i = 3 - j - k
    h1, h2, h3 = h[i], h[j], h[k]
    r12, r13, r23 = rho[i, j], rho[i, k], rho[j, k]
    if r23 >= 1.0:
        return float(_bvn_cdf(h1, min(h2, h3), r12))
    if r23 <= -1.0:
        return float(_bvn_cdf(h1, h2, r12) - _bvn_cdf(h1, -h3, r12)) if h2 > -h3 else 0.0
    # the terms of pairs (1, 2) and (1, 3), stacked on a leading axis
    theta = np.arcsin([r12, r13])[:, None, None]
    hb = np.array([h2, h3])[:, None, None]

    def derivative(x):
        return _plackett_term(x, theta, np.sin(theta[::-1] * x), r23, h1, hb, hb[::-1]).sum(axis=0)

    return float(ndtr(h1) * _bvn_cdf(h2, h3, r23)) + _adaptive_integral(derivative) / (2.0 * np.pi)


def _exact_tail(S: np.ndarray, t: np.ndarray) -> float:
    """P(Z > t) for Z ~ N(0, S) with at most ``_EXACT_MAX`` components, without sampling.

    A zero-variance component is the indicator t_i < 0.  The rest are
    standardized: P(Z > t) = P(X <= h) with h = -t / sd, for standard
    normal X with the correlations of S, clipped to [-1, 1].
    """
    spread = np.diag(S) > 0
    if (t[~spread] >= 0).any():
        return 0.0
    S, t = S[np.ix_(spread, spread)], t[spread]
    sd = np.sqrt(np.diag(S))
    h = -t / sd
    rho = np.clip(S / np.outer(sd, sd), -1.0, 1.0)
    if h.size == 0:
        p = 1.0
    elif h.size == 1:
        p = ndtr(h[0])
    elif h.size == 2:
        p = _bvn_cdf(h[0], h[1], rho[0, 1])
    else:
        p = _tvn_cdf(h, rho)
    return min(max(float(p), 0.0), 1.0)


# --------------------------------------------------------------------------
# Minimum test

_CRIT_CACHE: dict[tuple, float] = {}


def _min_tail(x: float, sigma_pos: np.ndarray, w_pos: np.ndarray) -> float:
    """P(min of weighted centered counts > x) under the null."""
    return mvn_upper_tail(sigma_pos, x / w_pos)


def _bracketed_root(g, lo: float, hi: float, xtol: float) -> float:
    """Root of the increasing ``g`` by Brent's method.

    ``[lo, hi]`` is widened outward, in doubling steps, until ``g``
    changes sign over it.
    """
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
    return float(brentq(g, lo, hi, xtol=xtol))


def _second_order_bound(z, s: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B2(z) = S1 - S2 for P(min_i s_i X_i <= z), and dB2/dz, at each z.

    X is standard normal with correlation matrix ``rho`` and every
    s_i > 0.  S1 sums the K marginals Phi(z / s_i), S2 the K(K-1)/2
    pairwise Phi2(z / s_i, z / s_j; rho_ij), so B2 <= P(min <= z) <= S1
    (Bonferroni).  B2's slope takes the derivative of each Phi2, which is
    phi(h) Phi((k - r h) / c) / s_i plus its mirror; at c = 0 the Phi
    factor is the step it tends to, 1/2 at 0.
    """
    iu, ju = _pairs(s.size)
    h = np.asarray(z, dtype=np.float64)[..., None] / s
    density = _norm_pdf(h) / s
    hi, hj, r = h[..., iu], h[..., ju], rho[iu, ju]
    c = np.sqrt(np.maximum(1.0 - r * r, 0.0))

    def given(num):  # Phi(num / c), with its step at c = 0
        return np.where(c > 0, ndtr(num / np.where(c > 0, c, 1.0)), 0.5 * (1.0 + np.sign(num)))

    bound = ndtr(h).sum(axis=-1) - _bvn_cdf(hi, hj, r).sum(axis=-1)
    slope = density.sum(axis=-1) - (density[..., iu] * given(hj - r * hi)
                                    + density[..., ju] * given(hi - r * hj)).sum(axis=-1)
    return bound, slope


def _b2_pre_root(s: np.ndarray, rho: np.ndarray, alpha: float, lo: float, hi: float):
    """B2's first crossing of alpha in [lo, hi], and its probit gap's slope there.

    B2 is scanned at ``_B2_GRID`` points from ``lo``, where B2 <= S1 <
    alpha, and Brent's method refines the first interval that ends above
    alpha.  Returns None when B2 stays at or below alpha on the whole
    scan.
    """
    grid = np.linspace(lo, hi, _B2_GRID)
    above = _second_order_bound(grid, s, rho)[0] > alpha
    if not above.any():
        return None
    i = int(np.argmax(above))
    z0 = brentq(lambda z: float(_second_order_bound(z, s, rho)[0]) - alpha,
                grid[i - 1], grid[i], xtol=1e-10)
    return z0, float(_second_order_bound(z0, s, rho)[1]) / float(_norm_pdf(ndtri(alpha)))


def _same_factor(sigma_pos: np.ndarray, w_pos: np.ndarray, za: float, zb: float) -> bool:
    """Whether the engine integrates the tail at za and zb with the same factor.

    The reorder breaks near-ties of the standardized limits by rounding,
    so between nearby z it can pick another pivot order, and the tail
    jumps by about its standard error.  Within one factor it is smooth.
    """
    return np.array_equal(_factor(sigma_pos, za / w_pos)[0], _factor(sigma_pos, zb / w_pos)[0])


def _newton_finish(g, z: float, slope: float, lo: float, hi: float, accept) -> Optional[float]:
    """Newton's method on ``g`` from z with a fixed slope, or None if it fails.

    A step from z to z - step ends it when ``accept(z, z - step)`` holds.
    It fails when a step leaves [lo, hi] or ``_FINISH_STEPS`` steps do
    not end it.
    """
    for _ in range(_FINISH_STEPS):
        step = g(z) / slope
        z, last = z - step, z
        if not lo <= z <= hi:  # also a step of +-inf, from a tail of exactly 0 or 1
            return None
        if accept(last, z):
            return z
    return None


def _min_critical(sigma_pos: np.ndarray, w_pos: np.ndarray, alpha: float, key: tuple) -> float:
    """Root z of 1 - P(min > z) = alpha: a pre-root and a Newton finish; cached per config.

    P(min <= z) is at least every marginal P(w_i Z_i <= z) and at most
    their sum, so with s_i = w_i sd(Z_i) the root lies in
    [max(s) ndtri(alpha/K), min(s) ndtri(alpha)].  The bracket is padded
    by a tenth of max(s), since its ends meet when K = 1.

    The pre-root z0 is the root of the second-order inclusion-exclusion
    bound B2(z) = S1 - S2 <= P(min <= z) (``_second_order_bound``), which
    takes K normal and K(K-1)/2 bivariate normal CDFs in closed form and
    no integration.  B2 sits below the tail, so z0 lies right of the
    root; it can also turn down again once S2 grows, so its first
    crossing of alpha from ``lo`` is taken (``_b2_pre_root``).
    Zero-variance pairs are left out of B2, which keeps it a lower bound.
    Up to ``_EXACT_MAX`` pairs the tail itself is exact and increasing
    (``_exact_tail``), so the pre-root is its root, by Brent's method on
    the bracket to ``_EXACT_STEP``.

    The finish is Newton's method from z0 on the full-precision probit
    gap, ndtri(P(min <= z)) - ndtri(alpha), whose root is the same but
    which is nearly linear in z (exactly so when K = 1).  Its fixed slope
    is that of B2's probit gap at z0.  A step ends the finish, without a
    confirming integration, when it is at most ``_ACCEPT_STEP`` and the
    engine's factor is the same at both of its ends (``_same_factor``),
    so that the tail is smooth between them.  Over 42 cold roots (k =
    2..10, sizes down to 2, alpha 0.01, 0.05 and 0.1) the error left
    after a first step within one factor was at most 3.4e-3 of the step,
    so an accepted step lands within 3.4e-7 of the root.  A cold root at
    [50] * 10 and alpha 0.05 is then one full-precision integration, and
    two or three where B2's root is farther off.  On an exact tail a
    step ends the finish when it is at most ``_EXACT_STEP``, so the root
    is that of the tail the p-values come from; from the exact pre-root
    the first step does, and a cold root is one call of the engine.

    If B2 stays below alpha on the bracket, its slope is not finite and
    positive, or the finish leaves the bracket or takes
    ``_FINISH_STEPS`` steps without ending, Brent's method finds the root
    of the full-precision gap instead, widening the bracket outward until
    the gap changes sign.
    """
    if key in _CRIT_CACHE:
        return _CRIT_CACHE[key]
    probit_alpha = float(ndtri(alpha))
    values = {}

    def g(z: float) -> float:  # remembers its values: brentq re-evaluates the bracket ends
        if z not in values:
            values[z] = float(ndtri(1.0 - _min_tail(z, sigma_pos, w_pos))) - probit_alpha
        return values[z]

    sd = np.sqrt(np.diag(sigma_pos))
    s = w_pos * sd
    pad = 0.1 * float(s.max())
    lo = float(s.max() * ndtri(alpha / s.size)) - pad
    hi = float(s.min() * ndtri(alpha)) + pad
    spread = sd > 0
    s, rho = s[spread], sigma_pos[np.ix_(spread, spread)] / np.outer(sd[spread], sd[spread])
    if sigma_pos.shape[0] <= _EXACT_MAX:
        z0 = brentq(lambda z: 1.0 - _exact_tail(sigma_pos, z / w_pos) - alpha, lo, hi,
                    xtol=_EXACT_STEP)
        pre = z0, float(_second_order_bound(z0, s, rho)[1]) / float(_norm_pdf(probit_alpha))
        xtol = _EXACT_STEP

        def accept(za, zb):
            return abs(zb - za) <= _EXACT_STEP
    else:
        pre = _b2_pre_root(s, rho, alpha, lo, hi)
        xtol = 1e-6

        def accept(za, zb):
            return abs(zb - za) <= _ACCEPT_STEP and _same_factor(sigma_pos, w_pos, za, zb)
    crit = None
    if pre is not None and 0.0 < pre[1] < np.inf:  # a nan, infinite or flat slope goes to Brent
        crit = _newton_finish(g, *pre, lo, hi, accept)
    if crit is None:
        crit = _bracketed_root(g, lo, hi, xtol)
    _CRIT_CACHE[key] = crit = float(crit)
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
    root.  ``p_value_standard_error`` is the engine's: 0.0 on an exact
    tail, of at most ``_EXACT_MAX`` positive-weight pairs.
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
    tail, standard_error = mvn_upper_tail(sigma_pos, stat / w_pos, full_output=True)
    p = min(max(1.0 - tail, 0.0), 1.0)
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
        p_value_standard_error=standard_error,
    )


# --------------------------------------------------------------------------
# Permutation fallback

_PERM_CHUNK_CELLS = 2 ** 17  # labels (or count slots) per batch of replicates: 1 MB of int64


def permutation_pvalue(table, w: WeightMatrix, ctx: MomentContext, B: int, seed: int = 0) -> dict[str, float]:
    """Lower-tail Monte-Carlo p-values of a count table, ``{"weighted_sum": p, "minimum": p}``.

    The reference depends on the design alone.  All replicates come from
    one stream, ``np.random.default_rng(seed)``: replicate r is the r-th
    row-wise shuffle of the labels ``np.repeat(1..k, ctx.sizes)``, counted
    in that order, so the result does not depend on how replicates are
    batched.  Each batch is tabulated once and scored by both
    statistics.  A replicate counts when its statistic is at or below
    the observed one; "at" allows a relative 100 machine epsilons, as in
    ``scipy.stats.permutation_test``, so exact ties are not lost to
    rounding.  Add-one smoothing keeps each p-value strictly positive.
    """
    B = int(B)
    if B < 100:
        raise ValueError(f"need at least 100 replicates, got B={B}")
    _check_k(w, ctx)
    k, N = ctx.n_groups, ctx.total
    iu, ju = _pairs(k)
    observed = _check_table(table, k)[iu, ju]
    wvec = w.vector()
    mean = ctx.pair_mean
    statistics = {
        "weighted_sum": lambda counts: _weighted_sums(counts, wvec),
        "minimum": lambda counts: _minima(counts, wvec, mean),
    }
    threshold = {}
    for name, stat in statistics.items():
        value = float(stat(observed))
        threshold[name] = value + 100.0 * np.finfo(np.float64).eps * abs(value)

    labels = np.repeat(np.arange(1, k + 1), ctx.sizes)
    rng = np.random.default_rng(seed)
    rows = max(1, _PERM_CHUNK_CELLS // max(N, k * k))
    at_or_below = dict.fromkeys(statistics, 0)
    for start in range(0, B, rows):
        n = min(rows, B - start)
        counts = tabulate(rng.permuted(np.broadcast_to(labels, (n, N)), axis=1), k)[:, iu, ju]
        for name, stat in statistics.items():
            at_or_below[name] += int(np.count_nonzero(stat(counts) <= threshold[name]))
    return {name: (1 + hits) / (B + 1) for name, hits in at_or_below.items()}
