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
all remaining variables at once at each step.  The lattice is
integrated ``_MVN_BLOCK`` points at a time, every variable of one block
before the next, in a few buffers of that width that every block
reuses, so its working memory is that of one block (704 KiB at K = 45)
plus one float per point, whatever the point count; the block does not
reach the result.  Its settings are fixed: 10 000 points and 12
shifts, the points doubling until the standard error is at most 1e-4.
Every tail, exact or integrated, is remembered in one bounded LRU cache
keyed by the bytes of the marginalized Sigma and the thresholds, so the
repeated thresholds of a power study are computed once.  Both tests
decide by their p-value (``TestResult.reject`` is ``p_value <=
alpha``).  The minimum test's critical value, only reported, is
:func:`minimum_critical_value`: the level-alpha root of that tail on
the probit scale.  It starts from the
root of the second-order inclusion-exclusion lower bound B2 = S1 - S2,
built from K normal CDFs and K(K-1)/2 bivariate normal CDFs in closed
form (Owen's T), which needs no integration.  One routine,
safeguarded Newton on an increasing function over a bracket whose ends
are known (:func:`_newton_root`), finds B2's root with B2's own slope
and then the tail's, with B2's slope at its root.  Each value narrows
the bracket by its sign; an unusable slope gives way to the secant
through the last two points, and a step that leaves the bracket, or
has no usable slope, becomes a bisection.  Up to three pairs the tail
is exact and the critical value is its root to about 1e-12, after one
or two exact tails.  Beyond that a step short enough, between two
points the engine integrates with the same factor, ends the root
without a confirming integration, so a cold root takes one or two
integrations.
:func:`permutation_pvalue` offers an exact-in-the-limit Monte-Carlo
fallback.  Under the permutation null the labels along any fixed path
form a uniform arrangement, so its reference draws arrangements of the
design's labels, from one ``np.random.default_rng(seed)`` stream per
call, and reads no path or data; a replicate whose statistic ties the
observed one counts as at or below it.  Replicates are shuffled,
tabulated and scored in batches of about ``_PERM_CHUNK_CELLS`` labels,
in one buffer that every batch reuses, so the working memory does not
grow with B.  One call,
``permutation_pvalue(table, w, ctx, B, seed)``, scores the observed
table and returns both p-values, ``{"weighted_sum": p, "minimum": p}``;
edges are counted by :mod:`~relevance_kit.counts`, never here.

Both tests reject for small statistics: under a location or scale
alternative the path crosses between samples less often than permutation
chance predicts.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .counts import check_table, tabulate
from .counts import count_edges  # noqa: F401 -- perfbench/tracing.py wraps inference.count_edges
from .moments import MomentContext, _pairs, build_sigma

__all__ = [
    "WeightMatrix",
    "TestResult",
    "weighted_sum_statistic",
    "weighted_sum_test",
    "minimum_statistic",
    "minimum_test",
    "minimum_critical_value",
    "build_sigma",
    "mvn_upper_tail",
    "permutation_pvalue",
    "MIN_REPLICATES",
]

_MVN_SEED = 20210802  # seed of the lattice shifts, fixed so every report is reproducible
_MVN_MEMO_SIZE = 256  # every tail, exact or integrated, is remembered: 4 MiB of Sigma keys at K=45
_B2_GRID = 17  # points at which the pre-root scans the analytic bracket for B2's first crossing
_ACCEPT_STEP = 1e-4  # Newton step small enough to stop at; see _min_critical
# Lattice points the engine integrates at a time: 704 KiB of buffers at
# K=45.  It must be a multiple of 4, here of 16 to spare: OpenBLAS's gemv
# computes a call's rows in groups of four and its last m mod 4 in a tail
# that rounds differently, so only whole groups per block put in that tail
# the points one whole-row call would, and keep the result independent of
# the block.
_MVN_BLOCK = 2048
_EXACT_MAX = 3  # components whose tail mvn_upper_tail computes exactly rather than integrating
_EXACT_STEP = 1e-12  # root tolerance, and Newton step small enough to stop at, on B2 and exact tails
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
        with np.errstate(over="ignore"):
            w = (w + w.T) / 2.0
        if not np.isfinite(w).all():
            raise ValueError("weights too large for float64: (w + w.T) / 2 overflows")
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
    """Outcome of one hypothesis test; ``reject`` is ``p_value <= alpha``.

    ``null_mean``/``null_sd``/``critical_value`` are populated for the
    weighted-sum test only; the minimum test's null is not a single
    normal, and its critical value is :func:`minimum_critical_value`.
    ``p_value_standard_error`` is populated for the minimum test only:
    the standard error of its multivariate-normal tail.
    """

    statistic: float
    p_value: float
    critical_value: Optional[float]
    method: str
    alpha: float
    null_mean: Optional[float] = None
    null_sd: Optional[float] = None
    p_value_standard_error: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")

    @property
    def reject(self) -> bool:
        return bool(self.p_value <= self.alpha)


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
    t = check_table(table, w.k)
    iu, ju = _pairs(w.k)
    return float(_weighted_sums(t[iu, ju], w.vector()))


def weighted_sum_test(table, w: WeightMatrix, ctx: MomentContext, alpha: float = 0.05) -> TestResult:
    """One-sided lower-tail test on the weighted sum of between counts.

    The null mean and variance come from the closed-form moments (the
    variance is the full quadratic form over the pair covariance
    matrix, not a sum of marginal variances).  The critical value
    ``null_mean + ndtri(alpha) * null_sd`` is where the p-value is alpha.
    """
    alpha = _check_alpha(alpha)
    _check_k(w, ctx)
    _warn_singletons(ctx)
    wvec = w.vector()
    with np.errstate(over="ignore", invalid="ignore"):  # weights too large are rejected below
        stat = weighted_sum_statistic(table, w)
        null_mean = float(wvec @ ctx.pair_mean)
        null_var = float(wvec @ build_sigma(ctx) @ wvec)
    if not math.isfinite(null_var):
        raise ValueError("null variance of the weighted sum overflows float64: the weights are too large")
    if null_var <= 0.0:
        raise ValueError("null variance of the weighted sum is zero; test is degenerate")
    null_sd = null_var ** 0.5
    p = float(ndtr((stat - null_mean) / null_sd))
    critical = null_mean + ndtri(alpha) * null_sd
    return TestResult(
        statistic=stat,
        p_value=p,
        critical_value=critical,
        method="weighted_sum",
        alpha=alpha,
        null_mean=null_mean,
        null_sd=null_sd,
    )


def minimum_statistic(table, w: WeightMatrix, ctx: MomentContext) -> float:
    """Smallest weighted centered count over pairs with positive weight."""
    _check_k(w, ctx)
    t = check_table(table, w.k)
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


def mvn_upper_tail(sigma, thresholds, *, full_output: bool = False):
    """P(Z > thresholds) for Z ~ N(0, sigma), componentwise strict.

    Components with threshold -inf are always satisfied and are
    marginalized out before integration.  Up to ``_EXACT_MAX`` remaining
    components have an exact tail (:func:`_exact_tail`: a normal CDF, a
    bivariate one by Owen's T, or a trivariate one by Plackett's
    reduction), with a standard error of 0.0.  A larger orthant
    probability is evaluated by the separation-of-variables transform
    over a randomized Richtmyer lattice at fixed settings: 10 000
    points and 12 shifts seeded by ``_MVN_SEED``, the point count
    doubling until the shift-to-shift standard error is at most 1e-4
    (at most three doublings).  Each shift
    works through the points ``_MVN_BLOCK`` at a time, on one reused
    (n - 1, block) array with a contiguous row per variable, and builds
    lattice row i of a block only when variable i is reached; only the
    integrand values, one per point, are kept whole, so each shift's
    estimate is their mean as before.

    The tail is a pure function of the marginalized Sigma and the
    thresholds, so every tail, exact or integrated, is remembered: the
    last ``_MVN_MEMO_SIZE`` results are kept (:func:`_tail`), keyed by
    byte copies of the two, and a repeated call returns the same
    ``(probability, standard_error)`` without computing it.  The shape,
    NaN and symmetry checks run on every call.  The positive-semidefinite
    one runs with the computation, and an error is not remembered: a
    rejected Sigma raises on every call.

    Parameters
    ----------
    sigma : (K, K) array_like
        Covariance matrix, symmetric positive semidefinite.  A diagonal
        jitter of 1e-10 is attempted once before rejecting a
        numerically indefinite matrix.
    thresholds : (K,) array_like
        Lower bounds; entries of -inf drop their component.
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
        return (0.0, 0.0) if full_output else 0.0
    keep = ~np.isneginf(t)
    out = _tail(S[np.ix_(keep, keep)].tobytes(), t[keep].tobytes())
    return out if full_output else out[0]


@functools.lru_cache(maxsize=_MVN_MEMO_SIZE)
def _tail(sigma_bytes: bytes, thresholds_bytes: bytes) -> tuple[float, float]:
    """(P(Z > t), standard error) from byte copies of the marginalized Sigma and t: the memo.

    Sigma is checked first (:func:`_jittered`).  Up to ``_EXACT_MAX``
    components the tail is exact, that of Sigma itself; beyond,
    :func:`_orthant` integrates it with the checked Sigma.
    """
    t = np.frombuffer(thresholds_bytes)
    S = np.frombuffer(sigma_bytes).reshape(t.size, t.size)
    checked = _jittered(S)
    if t.size > _EXACT_MAX:
        return _orthant(checked, t)
    return _exact_tail(S, t), 0.0


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


def _orthant(S: np.ndarray, t: np.ndarray, *, n_points: int = 10_000, n_shifts: int = 12,
             error_target: float = 1e-4, seed: int = _MVN_SEED) -> tuple[float, float]:
    """(P(Z > t), standard error) for n >= 2 components of a checked Sigma, by the lattice rule.

    P(Z > t) = P(-Z < -t), the CDF of N(0, S) at upper limits -t, which
    :func:`_reorder_cholesky` orders.  The defaults are the settings
    :func:`mvn_upper_tail` integrates at.
    """
    n = t.size
    C, u = _reorder_cholesky(S, -t)
    rng = np.random.default_rng(seed)
    sqrt_primes = np.sqrt(_first_primes(n - 1).astype(np.float64))
    e0 = ndtr(u[0] / C[0, 0]) if C[0, 0] > 0 else float(u[0] >= 0)

    tiny = 1e-300
    pts = int(n_points)
    block = min(_MVN_BLOCK, pts)
    Y_all = np.empty((n - 1, block))
    e_all, x_all, whole_all = (np.empty(block) for _ in range(3))
    for _ in range(4):
        estimates = np.empty(n_shifts)
        f = np.empty(pts)
        for s, shift in enumerate(rng.random((n_shifts, n - 1))):
            for start in range(0, pts, block):
                m = min(block, pts - start)
                j = np.arange(start + 1, start + m + 1, dtype=np.float64)  # the block's lattice indices
                fb, Y, e, x, whole = f[start:start + m], Y_all[:, :m], e_all[:m], x_all[:m], whole_all[:m]
                fb.fill(e0)
                e.fill(e0)
                for i in range(n):
                    if i > 0:
                        np.matmul(C[i, :i], Y[:i], out=x)
                        np.subtract(u[i], x, out=x)  # the conditional limit's numerator
                        if C[i, i] > 0:
                            ndtr(np.divide(x, C[i, i], out=x), out=e)
                        else:
                            np.greater_equal(x, 0.0, out=e)
                        fb *= e
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


def _newton_root(f, z: float, lo: float, hi: float, accept, xtol: float) -> float:
    """Root of the increasing f in [lo, hi] by safeguarded Newton steps from z.

    ``f(z)`` returns ``(value, slope)``.  The ends' signs, f(lo) < 0 <
    f(hi), are presumed and not evaluated; each value narrows [lo, hi]
    by its sign.  A Newton step from z to z - value / slope ends the
    root, without evaluating f there, when ``accept(z, z - value /
    slope)`` holds.  Where ``slope`` is not finite and positive, the
    secant slope through the last two points stands in for it.  A step
    whose slope is still unusable, or which does not land strictly
    inside [lo, hi], becomes a bisection, which ends the root once the
    bracket is at most ``xtol`` wide or has no float strictly inside.
    Every point evaluated after z lies strictly inside the bracket and
    narrows it, so the loop ends.
    A NaN value raises ``FloatingPointError``.
    """
    last = None
    while True:
        value, slope = f(z)
        if math.isnan(value):
            raise FloatingPointError(f"the minimum-test root met a NaN at z={z}")
        if value == 0.0:
            return z
        if value < 0.0:
            lo = z
        else:
            hi = z
        if not 0.0 < slope < math.inf and last is not None:
            slope = (value - last[1]) / (z - last[0])
        last = z, value
        new = z - value / slope if 0.0 < slope < math.inf else math.nan
        if lo < new < hi:  # false for a NaN
            if accept(z, new):
                return new
            z = new
        else:
            z = 0.5 * (lo + hi)
            if hi - lo <= xtol or not lo < z < hi:  # the latter: no float lies between them
                return z


def _short(za: float, zb: float) -> bool:
    """Whether a step from za to zb is at most ``_EXACT_STEP``: the end of a root of a closed form."""
    return abs(zb - za) <= _EXACT_STEP


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
    alpha.  The first interval that ends above alpha is refined from its
    upper end by Newton steps with B2's exact slope (``_newton_root``),
    to ``_EXACT_STEP``.  Returns None when B2 stays at or below alpha on
    the whole scan.
    """
    grid = np.linspace(lo, hi, _B2_GRID)
    above = _second_order_bound(grid, s, rho)[0] > alpha
    if not above.any():
        return None
    i = int(np.argmax(above))

    def gap(z: float) -> tuple[float, float]:
        bound, slope = _second_order_bound(z, s, rho)
        return float(bound) - alpha, float(slope)

    z0 = _newton_root(gap, grid[i], grid[i - 1], grid[i], _short, _EXACT_STEP)
    return z0, gap(z0)[1] / float(_norm_pdf(ndtri(alpha)))


def _same_factor(sigma_pos: np.ndarray, w_pos: np.ndarray, za: float, zb: float) -> bool:
    """Whether the engine integrates the tail at za and zb with the same factor.

    The reorder breaks near-ties of the standardized limits by rounding,
    so between nearby z it can pick another pivot order, and the tail
    jumps by about its standard error.  Within one factor it is smooth.
    It factors Sigma as given, as the engine does unless Sigma has no
    Cholesky factor and takes the engine's jitter.
    """
    return np.array_equal(_reorder_cholesky(sigma_pos, -za / w_pos)[0],
                          _reorder_cholesky(sigma_pos, -zb / w_pos)[0])


def _min_critical(sigma_pos: np.ndarray, w_pos: np.ndarray, alpha: float) -> float:
    """Root z of 1 - P(min > z) = alpha, by Newton steps from B2's root.

    P(min <= z) is at least every marginal P(w_i Z_i <= z) and at most
    their sum, so with s_i = w_i sd(Z_i) the root lies in
    [max(s) ndtri(alpha/K), min(s) ndtri(alpha)].  The bracket is padded
    by a tenth of max(s), since its ends meet when K = 1.

    The start z0 is the root of the second-order inclusion-exclusion
    bound B2(z) = S1 - S2 <= P(min <= z) (``_second_order_bound``), which
    takes K normal and K(K-1)/2 bivariate normal CDFs in closed form and
    no integration.  B2 sits below the tail, so z0 lies right of the
    root; it can also turn down again once S2 grows, so its first
    crossing of alpha from ``lo`` is taken (``_b2_pre_root``).
    Zero-variance pairs are left out of B2, which keeps it a lower bound.

    From z0, ``_newton_root`` finds the root of the probit gap
    ndtri(P(min <= z)) - ndtri(alpha), which is nearly linear in z
    (exactly so when K = 1), with the fixed slope of B2's probit gap at
    z0.  Up to ``_EXACT_MAX`` pairs the tail is exact (``_exact_tail``)
    and a step of at most ``_EXACT_STEP`` ends the root, so the root is
    that of the tail the p-values come from, after one or two exact
    tails.  Beyond that each value is an integration.  A Newton step
    ends the root, without a confirming integration, when it is at most
    ``_ACCEPT_STEP`` and the engine's factor is the same at both of its
    ends (``_same_factor``), so that the tail is smooth between them.
    Over 42 cold roots (k = 2..10, sizes down to 2, alpha 0.01, 0.05 and
    0.1) the error left after a first step within one factor was at most
    3.4e-3 of the step, so an accepted step lands within 3.4e-7 of the
    root.  A cold root at [50] * 10 and alpha 0.05 is then one
    integration, and two where B2's root is farther off.  A bisection,
    which a step outside the bracket or an unusable slope forces, ends
    the root only once the bracket is at most 1e-6 wide.  If B2 stays
    below alpha on the bracket, no slope is given: the root starts with
    a bisection of the bracket, and secant steps follow.

    A root that ends at an end of the bracket is not one: every value
    had one sign.  The bracket is then widened outward from that end, in
    doubling steps, until the gap changes sign, and the root is found
    again between the last two points.
    """
    probit_alpha = float(ndtri(alpha))
    sd = np.sqrt(np.diag(sigma_pos))
    s = w_pos * sd
    pad = 0.1 * float(s.max())
    lo = float(s.max() * ndtri(alpha / s.size)) - pad
    hi = float(s.min() * ndtri(alpha)) + pad
    spread = sd > 0
    s, rho = s[spread], sigma_pos[np.ix_(spread, spread)] / np.outer(sd[spread], sd[spread])
    z0, slope = _b2_pre_root(s, rho, alpha, lo, hi) or (0.5 * (lo + hi), math.nan)

    def gap(z: float) -> tuple[float, float]:
        return float(ndtri(1.0 - mvn_upper_tail(sigma_pos, z / w_pos))) - probit_alpha, slope

    if sigma_pos.shape[0] <= _EXACT_MAX:
        accept, xtol = _short, _EXACT_STEP
    else:
        xtol = 1e-6

        def accept(za, zb):
            return abs(zb - za) <= _ACCEPT_STEP and _same_factor(sigma_pos, w_pos, za, zb)
    crit = _newton_root(gap, z0, lo, hi, accept, xtol)
    if min(crit - lo, hi - crit) <= xtol:  # every value had one sign: widen from that end
        step = max(hi - lo, 1.0) * (1.0 if hi - crit <= xtol else -1.0)
        near = crit
        for _ in range(60):
            far = near + step
            if gap(far)[0] * step > 0.0:  # the gap's sign is that of the step: it changed
                break
            near, step = far, 2.0 * step
        else:
            side = "above" if step > 0.0 else "below"
            raise FloatingPointError(f"could not bracket the minimum-test critical value from {side}")
        crit = _newton_root(gap, 0.5 * (near + far), min(near, far), max(near, far), accept, xtol)
    return float(crit)


def _positive_pairs(w: WeightMatrix, ctx: MomentContext) -> tuple[np.ndarray, np.ndarray]:
    """Null covariance and weights of the positive-weight pairs.

    Raises ``ValueError`` when all of them have zero null variance, as
    for sizes [1, 1]: the tail is then a step with no level-alpha root.
    """
    _check_k(w, ctx)
    wvec = w.vector()
    pos = wvec > 0
    sigma_pos = build_sigma(ctx)[np.ix_(pos, pos)]
    if (np.diag(sigma_pos) <= 0.0).all():
        raise ValueError("null variance of every positive-weight pair is zero; test is degenerate")
    return sigma_pos, wvec[pos]


def minimum_test(table, w: WeightMatrix, ctx: MomentContext, alpha: float = 0.05) -> TestResult:
    """One-sided test on the minimum weighted centered count.

    The p-value is 1 - P(Z > x / w) where Z carries the joint null
    covariance of the positive-weight counts: the minimum exceeds x
    exactly when every weighted coordinate does, and dividing by the
    (positive) weights moves the comparison onto the raw-count scale.
    Zero-weight pairs impose no constraint and are dropped.  It finds no
    root, so ``critical_value`` is None.  Raises ``ValueError`` on a
    degenerate null (``_positive_pairs``).  ``p_value_standard_error``
    is the engine's: 0.0 on an exact tail, of at most ``_EXACT_MAX``
    positive-weight pairs.
    """
    alpha = _check_alpha(alpha)
    _warn_singletons(ctx)
    stat = minimum_statistic(table, w, ctx)
    sigma_pos, w_pos = _positive_pairs(w, ctx)
    tail, standard_error = mvn_upper_tail(sigma_pos, stat / w_pos, full_output=True)
    return TestResult(
        statistic=stat,
        p_value=min(max(1.0 - tail, 0.0), 1.0),
        critical_value=None,
        method="minimum",
        alpha=alpha,
        p_value_standard_error=standard_error,
    )


def minimum_critical_value(w: WeightMatrix, ctx: MomentContext, alpha: float = 0.05) -> float:
    """Where :func:`minimum_test`'s p-value is alpha (``_min_critical``), afresh on every call."""
    alpha = _check_alpha(alpha)
    return _min_critical(*_positive_pairs(w, ctx), alpha)


# --------------------------------------------------------------------------
# Permutation fallback

MIN_REPLICATES = 100  # fewest permutation replicates permutation_pvalue takes
# Labels (or count slots) per batch of replicates.  A batch's shuffled
# labels, reused from batch to batch, and its edge bins take 256 KiB of
# int64 each, so the reference's working memory does not grow with B.
_PERM_CHUNK_CELLS = 2 ** 15


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
    if B < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got B={B}")
    _check_k(w, ctx)
    k, N = ctx.n_groups, ctx.total
    iu, ju = _pairs(k)
    observed = check_table(table, k)[iu, ju]
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
    rows = min(B, max(1, _PERM_CHUNK_CELLS // max(N, k * k)))
    shuffled = np.empty((rows, N), dtype=labels.dtype)
    at_or_below = dict.fromkeys(statistics, 0)
    for start in range(0, B, rows):
        batch = shuffled[:min(rows, B - start)]
        batch[...] = labels
        rng.permuted(batch, axis=1, out=batch)  # each row shuffled in place
        counts = tabulate(batch, k)[:, iu, ju]
        for name, stat in statistics.items():
            at_or_below[name] += int(np.count_nonzero(stat(counts) <= threshold[name]))
    return {name: (1 + hits) / (B + 1) for name, hits in at_or_below.items()}
