"""Gaussian data generation and power estimation.

Groups are drawn from multivariate normals whose covariance is either
AR(1) — Sigma[i, j] = sigma2 * rho**|i-j| — or a scaled identity.  The
AR(1) structure is realized exactly by the stationary recursion
X_1 = mu + sigma*e_1, X_j = mu + rho*(X_{j-1} - mu) + sigma*sqrt(1-rho^2)*e_j,
which is O(n*d) instead of factoring a dense d x d covariance.
:func:`gen_gaussian` runs it in place on one (N, d) draw of innovations,
a coordinate at a time for all groups at once, each row with its own
rho: after scaling, column j gains rho times column j - 1 (one multiply
and one add per element), and mu is added last.  Those are the
operations of the IIR filter with numerator [1] and denominator
[1, -rho], so the data match ``scipy.signal.lfilter`` bit for bit
without importing ``scipy.signal``.

``preset_case`` returns the standard benchmark configurations (two- and
three-sample location/scale alternatives); ``estimate_power`` runs the
full pipeline — generate, cost, path, count, test — over independent
seeded trials and reports the rejection fraction.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .cost import (_check_memory, _cost_matrix_bytes, average_cost, check_gamma,
                   diff_augmented_cost, gamma_cost)
from .counts import GroupAssignment, count_edges
from .inference import WeightMatrix, minimum_test, weighted_sum_test
from .moments import MomentContext
from .shp import approximate_shp

__all__ = [
    "CovSpec",
    "ar1",
    "scaled_identity",
    "SimCase",
    "gen_gaussian",
    "preset_case",
    "resolve_cost",
    "estimate_power",
]


def _is_real(value) -> bool:
    """True for a Python or numpy integer or float in float range; False for a boolean or a string."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:  # an integer beyond float range
        return False
    return True


@dataclass(frozen=True)
class CovSpec:
    """AR(1) covariance parameters: Sigma[i, j] = sigma2 * rho**|i-j|.

    ``rho`` in (-1, 1) and a positive, finite ``sigma2`` must be real
    numbers (not True or "0.2"); both are stored as floats.
    """

    rho: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not (_is_real(self.rho) and -1.0 < self.rho < 1.0):
            raise ValueError(f"rho must be in (-1, 1), got {self.rho!r}")
        if not (_is_real(self.sigma2) and 0.0 < self.sigma2 < np.inf):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "sigma2", float(self.sigma2))


def ar1(rho: float, sigma2: float = 1.0) -> CovSpec:
    return CovSpec(rho=rho, sigma2=sigma2)


def scaled_identity(c: float) -> CovSpec:
    """c * I, i.e. AR(1) with rho = 0 and sigma2 = c."""
    return CovSpec(rho=0.0, sigma2=c)


def _is_whole(value) -> bool:
    """True for an integer or an integral float such as 20.0; False for a boolean."""
    return _is_real(value) and float(value).is_integer()


@dataclass(frozen=True)
class SimCase:
    """One Gaussian k-sample design.

    ``means[l]`` is a scalar offset applied to every coordinate of
    group l + 1; ``covs[l]`` its covariance spec.  ``sizes`` and ``d``
    must be whole numbers (20 or 20.0, not 20.7 or True), and ``means``
    finite real numbers (not True or "1"); they are stored as ints and
    floats.  A design whose data draw (8 N d bytes) and cost matrix
    would exceed the physical memory raises ``ValueError`` here, before
    any trial allocates them.
    """

    sizes: tuple
    d: int
    means: tuple
    covs: tuple
    seed: Union[int, tuple] = 0

    def __post_init__(self):
        sizes = tuple(self.sizes)
        if not sizes or not all(_is_whole(n) and n >= 1 for n in sizes):
            raise ValueError(f"sizes must be positive integers, got {self.sizes}")
        sizes = tuple(int(n) for n in sizes)
        if len(self.means) != len(sizes) or len(self.covs) != len(sizes):
            raise ValueError("sizes, means and covs must have one entry per group")
        if not (_is_whole(self.d) and self.d >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not all(_is_real(m) and math.isfinite(m) for m in self.means):
            raise ValueError(f"means must be finite real numbers, got {tuple(self.means)}")
        for c in self.covs:
            if not isinstance(c, CovSpec):
                raise TypeError(f"covs entries must be CovSpec, got {type(c).__name__}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "covs", tuple(self.covs))
        object.__setattr__(self, "d", int(self.d))
        n = self.n_total
        _check_memory(8 * n * self.d + _cost_matrix_bytes(n),
                      f"N={n} observations in d={self.d} dimensions",
                      "the data and the cost matrix")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n_total(self) -> int:
        return sum(self.sizes)


def gen_gaussian(case: SimCase, seed=None):
    """Draw one dataset; returns (data matrix, group assignment).

    ``seed`` overrides ``case.seed`` when given (used by the power
    harness to key per-trial streams).  The data matrix is C-contiguous,
    one row per observation.
    """
    rng = np.random.default_rng(case.seed if seed is None else seed)
    sizes = case.sizes
    # One (N, d) draw equals the per-group draws stacked: the stream fills
    # rows in order either way.
    x = rng.standard_normal((case.n_total, case.d))
    sig = [np.sqrt(c.sigma2) for c in case.covs]
    innovation = [s * np.sqrt(1.0 - c.rho ** 2) for s, c in zip(sig, case.covs)]
    x[:, 0] *= np.repeat(sig, sizes)
    x[:, 1:] *= np.repeat(innovation, sizes)[:, None]
    rho = np.repeat([c.rho for c in case.covs], sizes)
    columns = list(x.T)
    tmp = np.empty(case.n_total)
    for prev, cur in zip(columns, columns[1:]):
        np.multiply(prev, rho, out=tmp)
        np.add(cur, tmp, out=cur)
    x += np.repeat(case.means, sizes)[:, None]
    labels = np.repeat(np.arange(1, case.k + 1), sizes)
    return x, GroupAssignment(labels)


def preset_case(case_id: int, d: int = 100, seed=0) -> SimCase:
    """Benchmark designs 1-6, plus 0 as a null calibration case.

    1-3 are two-sample (sizes 20/40) location, scale, and combined
    alternatives on AR(1) data; 4-6 are their three-sample analogues
    (sizes 20/30/40).  Case 0 keeps the two-sample sizes with all
    groups IID standard normal, so any test's power equals its size.
    """
    presets = {
        0: ((20, 40), (0.0, 0.0), (ar1(0.0), ar1(0.0))),
        1: ((20, 40), (0.0, 0.1), (ar1(0.2), ar1(0.2))),
        2: ((20, 40), (0.0, 0.0), (ar1(0.2), ar1(0.4))),
        3: ((20, 40), (0.0, 0.1), (ar1(0.2), ar1(0.4))),
        4: ((20, 30, 40), (0.0, 0.0, 0.1), (ar1(0.2), ar1(0.2), ar1(0.4))),
        5: ((20, 30, 40), (0.0, 0.0, 0.1), (ar1(0.2), ar1(0.4), ar1(0.6))),
        6: ((20, 30, 40), (0.0, -0.1, 0.1), (ar1(0.2), ar1(0.4), ar1(0.6))),
    }
    if case_id not in presets:
        raise ValueError(f"unknown case id {case_id!r}; expected 0..6")
    sizes, means, covs = presets[case_id]
    return SimCase(sizes=sizes, d=d, means=means, covs=covs, seed=seed)


def resolve_cost(cost) -> Callable[[np.ndarray], np.ndarray]:
    """Map a cost selector to a data -> cost-matrix callable.

    Accepts a callable unchanged, or one of the strings ``gamma:G``
    (G in (0, 2], e.g. ``gamma:0.5``), ``average``, ``diff``.
    """
    if callable(cost):
        return cost
    if not isinstance(cost, str):
        raise TypeError(f"cost must be a callable or selector string, got {type(cost).__name__}")
    if cost == "average":
        return average_cost
    if cost == "diff":
        return diff_augmented_cost
    if cost.startswith("gamma:"):
        try:
            gamma = float(cost.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed gamma selector {cost!r}; expected gamma:G") from None
        check_gamma(gamma)
        return lambda data: gamma_cost(data, gamma)
    raise ValueError(f"unknown cost selector {cost!r}; expected gamma:G, average or diff")


_TEST_ALIASES = {
    "ws": "weighted_sum",
    "weighted_sum": "weighted_sum",
    "min": "minimum",
    "minimum": "minimum",
}


_WINDOW = 4  # trials submitted per worker ahead of the oldest unfinished one


def _run_trial(case: SimCase, cost_fn, test: str, alpha: float,
               ctx: MomentContext, w: WeightMatrix, seed) -> bool:
    data, groups = gen_gaussian(case, seed=seed)
    path = approximate_shp(cost_fn(data), seed)
    table = count_edges(path, groups)
    if test == "weighted_sum":
        return weighted_sum_test(table, w, ctx, alpha).reject
    return minimum_test(table, w, ctx, alpha).reject


def estimate_power(case: SimCase, cost, test: str, alpha: float = 0.05,
                   trials: int = 200, seed: int = 0) -> float:
    """Rejection fraction of one test over independently seeded trials.

    Each trial draws a fresh dataset with stream (seed, trial) and runs
    the full pipeline, so results are reproducible and independent of
    how trials are scheduled.  Worker count is capped by the
    RELEVANCE_THREADS environment variable (default 1).  Trials are
    streamed: the seeds are made as they are run, and a pool is fed at
    most ``_WINDOW`` trials per worker ahead of the oldest unfinished
    one, so memory does not grow with ``trials``.
    """
    trials = int(trials)
    if trials < 50:
        raise ValueError(f"need at least 50 trials for a stable estimate, got {trials}")
    name = _TEST_ALIASES.get(test)
    if name is None:
        raise ValueError(f"unknown test selector {test!r}; expected one of {sorted(_TEST_ALIASES)}")
    cost_fn = resolve_cost(cost)
    ctx = MomentContext(np.asarray(case.sizes))
    w = WeightMatrix.default(ctx)

    workers = max(1, int(os.environ.get("RELEVANCE_THREADS", "1")))
    run = functools.partial(_run_trial, case, cost_fn, name, alpha, ctx, w)
    if workers == 1:
        return sum(run((seed, t)) for t in range(trials)) / trials
    hits, pending = 0, deque()
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for t in range(trials):
            if len(pending) == _WINDOW * workers:
                hits += pending.popleft().result()
            pending.append(ex.submit(run, (seed, t)))
        hits += sum(f.result() for f in pending)
    return hits / trials
