"""Tests for the multivariate-normal upper tail: exact up to three components, integrated beyond.

Oracles: closed-form orthant probabilities in two and three dimensions,
the independence product rule, interval probabilities for rank-1 and a
quadrature over one latent variable for rank-2 covariances, scipy's bivariate
CDF, plain Monte Carlo for a general correlated case, and the lattice
engine's earlier loops, kept here: the scalar variable reordering as
``reference_reorder`` and the per-shift integration on a (points, n - 1)
lattice matrix as ``reference_upper_tail``.  Each is checked on its own:
the integration oracle factors with the production reorder, which the
scalar loop pins separately, so a last-bit difference between the two
reorders' factors never reaches the 1e-14 integration comparison.  Up to
three components ``mvn_upper_tail`` does not integrate, so the lattice
engine is called as ``inference._orthant`` where it is the subject.
"""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtr, ndtri, roots_legendre
from scipy.stats import multivariate_normal, norm

from relevance_kit import inference
from relevance_kit.inference import mvn_upper_tail
from relevance_kit.moments import MomentContext, build_sigma


def orthant_2d(rho):
    """P(Z1 > 0, Z2 > 0) for standard bivariate normal with correlation rho."""
    return 0.25 + np.arcsin(rho) / (2.0 * np.pi)


def orthant_3d(rho):
    """P(all three > 0) under equicorrelation rho (rho > -1/2)."""
    return 0.125 + 3.0 * np.arcsin(rho) / (4.0 * np.pi)


def reference_reorder(sigma, upper):
    """The engine's earlier reordering: one scalar step per remaining variable."""
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
            C[i:, i] = 0.0
            C[i, i] = 0.0
        y[i] = -norm.pdf(best_ut) / best_e if best_e > 1e-300 else best_ut
    return C, u


def reference_upper_tail(sigma, thresholds, *, n_points=10_000, n_shifts=12,
                         error_target=1e-4, seed=20210802):
    """(P(Z > t), standard error) by the engine's earlier loops, unmemoized.

    The factor comes from the engine's ``_reorder_cholesky``, which
    ``TestReorderAgainstScalarLoop`` checks against ``reference_reorder``.
    Every shift builds the whole (pts, n - 1) lattice matrix and reads it
    by column.
    """
    S = np.asarray(sigma, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)
    keep = ~np.isneginf(t)
    S = S[np.ix_(keep, keep)]
    t = t[keep]
    n = t.size
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        S = S + 1e-10 * np.eye(n)
        np.linalg.cholesky(S)

    C, u = inference._reorder_cholesky(S, -t)
    rng = np.random.default_rng(seed)
    sqrt_primes = np.sqrt(inference._first_primes(n - 1).astype(np.float64))

    tiny = 1e-300
    pts = int(n_points)
    for _ in range(4):
        estimates = np.empty(n_shifts)
        j = np.arange(1, pts + 1, dtype=np.float64)[:, None]
        for s in range(n_shifts):
            shift = rng.random(n - 1)
            x = np.abs(2.0 * np.modf(j * sqrt_primes + shift)[0] - 1.0)
            f = np.full(pts, ndtr(u[0] / C[0, 0]) if C[0, 0] > 0 else float(u[0] >= 0))
            Y = np.empty((pts, n - 1))
            Y[:, 0] = ndtri(np.clip(x[:, 0] * f, tiny, 1.0 - 1e-16))
            for i in range(1, n):
                num = u[i] - Y[:, :i] @ C[i, :i]
                if C[i, i] > 0:
                    e = ndtr(num / C[i, i])
                else:
                    e = (num >= 0).astype(np.float64)
                f = f * e
                if i < n - 1:
                    Y[:, i] = ndtri(np.clip(x[:, i] * e, tiny, 1.0 - 1e-16))
            estimates[s] = f.mean()
        prob = float(estimates.mean())
        err = float(estimates.std(ddof=1) / np.sqrt(n_shifts))
        if err <= error_target:
            break
        pts *= 2
    prob = min(max(prob, 0.0), 1.0)
    return prob, err


def orthant(sigma, thresholds, *, n_points=10_000, n_shifts=12, error_target=1e-4,
            seed=20210802):
    """The lattice engine's (P(Z > t), standard error), as mvn_upper_tail calls it beyond three components."""
    S = np.asarray(sigma, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)
    keep = ~np.isneginf(t)
    return inference._orthant(S[np.ix_(keep, keep)].tobytes(), t[keep].tobytes(), int(n_points),
                              int(n_shifts), float(error_target), int(seed))


def rank_one_tail(a, t):
    """P(a X > t) for standard normal X, an interval of X (every a_i nonzero)."""
    lo = max([ti / ai for ai, ti in zip(a, t) if ai > 0], default=-np.inf)
    hi = min([ti / ai for ai, ti in zip(a, t) if ai < 0], default=np.inf)
    return max(float(ndtr(hi) - ndtr(lo)), 0.0)


def rank_two_tail(A, t):
    """P(A W > t) for W ~ N(0, I_2), by quadrature over W_1.

    Given W_1 = w, the constraints bound W_2 to an interval.  The
    integrand has kinks only where two of their bounds cross, which are
    the quadrature's break points (every A[i, 1] nonzero).
    """
    crossings = [(A[j, 1] * t[i] - A[i, 1] * t[j]) / (A[j, 1] * A[i, 0] - A[i, 1] * A[j, 0])
                 for i in range(len(t)) for j in range(i)]

    def given(w):
        bounds = (t - A[:, 0] * w) / A[:, 1]
        lo = bounds[A[:, 1] > 0].max(initial=-np.inf)
        hi = bounds[A[:, 1] < 0].min(initial=np.inf)
        return norm.pdf(w) * max(float(ndtr(hi) - ndtr(lo)), 0.0)

    points = sorted(w for w in crossings if -40.0 < w < 40.0)
    return quad(given, -40.0, 40.0, points=points, epsabs=1e-14, limit=500)[0]


def mc_upper_tail(sigma, t, reps, seed):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(sigma)
    Z = rng.standard_normal((reps, len(t))) @ L.T
    hits = (Z > np.asarray(t)).all(axis=1)
    p = hits.mean()
    return p, np.sqrt(p * (1.0 - p) / reps)


class TestNormalDensity:
    """The reordering's density equals ``scipy.stats.norm.pdf`` bit for bit."""

    def test_array_grid(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 100_001), [0.0, -0.0, np.inf, -np.inf]])
        assert np.array_equal(inference._norm_pdf(x), norm.pdf(x))

    @pytest.mark.parametrize("x", [0.0, 1e-300, -0.5, 1.25, -8.0, 38.5, np.inf, -np.inf])
    def test_python_float(self, x):
        assert inference._norm_pdf(x) == norm.pdf(x)


class TestClosedFormOrthants:
    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.0, 0.3, 0.8])
    def test_two_dimensional(self, rho):
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        assert_allclose(mvn_upper_tail(sigma, [0.0, 0.0]), orthant_2d(rho), atol=2e-4)

    @pytest.mark.parametrize("rho", [-0.3, 0.0, 0.5, 0.9])
    def test_three_dimensional_equicorrelated(self, rho):
        sigma = np.full((3, 3), rho)
        np.fill_diagonal(sigma, 1.0)
        assert_allclose(mvn_upper_tail(sigma, [0.0, 0.0, 0.0]), orthant_3d(rho), atol=2e-4)

    def test_two_dimensional_nonzero_thresholds(self):
        # independence: tail factorizes over components
        sigma = np.diag([1.0, 4.0])
        expected = ndtr(-0.5) * ndtr(1.0 / 2.0)
        assert_allclose(mvn_upper_tail(sigma, [0.5, -1.0]), expected, atol=2e-4)


def correlated(r, sd=(1.0, 2.0, 0.5)):
    """Covariance with correlations (r12, r13, r23) and standard deviations sd."""
    R = np.eye(3)
    R[0, 1], R[0, 2], R[1, 2] = r
    R = np.triu(R) + np.triu(R, 1).T
    return R * np.outer(sd, sd)


def engine_problem(kind, seed):
    """A 3 x 3 Sigma of the given kind and thresholds inside its bulk."""
    rng = np.random.default_rng(seed)
    if kind == "full rank":
        A = rng.standard_normal((3, 3))
        sigma = A @ A.T
    elif kind == "rank 2":
        A = rng.standard_normal((3, 2))
        sigma = A @ A.T
    else:  # |r| -> 1: one dominant direction and a little independent noise
        a = rng.standard_normal(3)
        sigma = np.outer(a, a) + 1e-8 * np.diag(rng.uniform(0.5, 1.5, 3))
    return sigma, -np.sqrt(np.diag(sigma)) * rng.uniform(-1.0, 2.5, 3)


class TestExactTails:
    """Up to three components the tail is exact and its standard error is 0.0."""

    @pytest.mark.parametrize("r", [(0.5, 0.3, 0.2), (-0.4, -0.3, -0.2), (0.9, -0.5, -0.2),
                                   (0.0, 0.0, 0.7), (-0.45, -0.45, -0.1),
                                   (0.999, 0.998, 0.9975)])
    def test_zero_threshold_trivariate_orthant(self, r):
        p, err = mvn_upper_tail(correlated(r), np.zeros(3), full_output=True)
        assert err == 0.0
        assert abs(p - (0.125 + np.arcsin(r).sum() / (4.0 * np.pi))) <= 1e-14

    @pytest.mark.parametrize("variances, t", [([1.0, 4.0], [0.5, -1.0]),
                                              ([1.0, 4.0, 0.25], [0.5, -1.0, 2.0]),
                                              ([2.0, 0.5, 3.0], [-0.3, 0.0, 1.2])])
    def test_independence_product(self, variances, t):
        p, err = mvn_upper_tail(np.diag(variances), t, full_output=True)
        assert err == 0.0
        assert_allclose(p, np.prod(ndtr(-np.array(t) / np.sqrt(variances))), rtol=1e-14, atol=1e-16)

    def test_zero_variance_component_is_an_indicator(self):
        sigma = np.diag([2.0, 0.0, 1.0])
        assert_allclose(mvn_upper_tail(sigma, [0.4, -1e-300, -0.2]),
                        ndtr(-0.4 / np.sqrt(2.0)) * ndtr(0.2), rtol=1e-14)
        assert mvn_upper_tail(sigma, [0.4, 0.0, -0.2]) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.1, 10.0))
    def test_rank_one_is_an_interval(self, seed, scale):
        # The lattice engine integrates Sigma + 1e-10 I here (Cholesky fails),
        # which moves such a tail by up to about 3e-9; the exact tail is that
        # of Sigma itself.
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal(3)
        t = np.abs(a) * rng.uniform(-1.5, 1.5, 3)
        p, err = mvn_upper_tail(np.outer(a, a), t, full_output=True)
        assert err == 0.0
        assert abs(p - rank_one_tail(a, t)) <= 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_rank_two_matches_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 2))
        t = np.sqrt((A ** 2).sum(axis=1)) * rng.uniform(-1.5, 1.5, 3)
        assert abs(mvn_upper_tail(A @ A.T, t) - rank_two_tail(A, t)) <= 1e-12

    @pytest.mark.parametrize("kind", ["full rank", "rank 2", "|r| -> 1"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_lattice_engine(self, kind, seed):
        sigma, t = engine_problem(kind, seed)
        p, err = mvn_upper_tail(sigma, t, full_output=True)
        want, se = orthant(sigma, t, error_target=1e-8)
        assert err == 0.0
        assert abs(p - want) <= 4.0 * se + 1e-10

    @pytest.mark.parametrize("r", [-0.95, -0.3, 0.0, 0.6, 0.999])
    def test_bivariate_matches_scipy(self, r):
        sigma = np.array([[2.0, r], [r, 0.5]])
        joint = multivariate_normal([0.0, 0.0], sigma)
        for t in ([0.0, 0.0], [1.3, -0.4], [-2.0, -1.5], [0.7, 2.1], [-0.2, 0.3]):
            p, err = mvn_upper_tail(sigma, t, full_output=True)
            assert err == 0.0
            assert abs(p - joint.cdf(-np.array(t))) <= 1e-12

    def test_settings_do_not_reach_the_exact_tail(self):
        sigma = correlated((0.5, 0.3, 0.2))
        t = [0.1, -0.2, 0.3]
        assert mvn_upper_tail(sigma, t) == mvn_upper_tail(sigma, t, n_points=16, n_shifts=2,
                                                          error_target=1.0, seed=7)

    def test_gauss_legendre_table(self):
        x, w = roots_legendre(10)
        assert np.array_equal(inference._GL_X, (x + 1.0) / 2.0)
        assert np.array_equal(inference._GL_W, w / 2.0)

    def test_checks_positive_semidefiniteness(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            mvn_upper_tail(correlated((0.9, 0.9, -0.9)), [0.0, 0.0, 0.0])


class TestIndependenceProduct:
    def test_diagonal_sigma_factorizes(self):
        sigma = np.diag([1.0, 4.0, 0.25])
        t = np.array([0.5, -1.0, 2.0])
        expected = np.prod(ndtr(-t / np.sqrt(np.diag(sigma))))
        assert_allclose(mvn_upper_tail(sigma, t), expected, atol=1e-3)


class TestMonteCarloCrossCheck:
    def test_correlated_three_dimensional(self):
        rng = np.random.default_rng(555)
        A = rng.standard_normal((3, 3))
        sigma = A @ A.T + 0.5 * np.eye(3)
        t = np.array([0.2, -0.4, 0.1])
        p_qmc = mvn_upper_tail(sigma, t)
        p_mc, se = mc_upper_tail(sigma, t, reps=400_000, seed=556)
        assert abs(p_qmc - p_mc) < 4.0 * se


class TestLimitHandling:
    def test_neg_inf_marginalizes_component(self):
        sigma = np.array([[2.0, 0.7], [0.7, 1.5]])
        p = mvn_upper_tail(sigma, [-np.inf, 0.3])
        assert_allclose(p, ndtr(-0.3 / np.sqrt(1.5)), rtol=1e-12)

    def test_all_neg_inf_is_certain(self):
        sigma = np.eye(3)
        assert mvn_upper_tail(sigma, [-np.inf] * 3) == 1.0

    def test_any_pos_inf_is_impossible(self):
        sigma = np.eye(2)
        assert mvn_upper_tail(sigma, [0.0, np.inf]) == 0.0

    @pytest.mark.parametrize("t", [-2.0, -0.5, 0.0, 1.3])
    def test_one_dimensional_is_exact(self, t):
        p = mvn_upper_tail(np.array([[4.0]]), [t])
        assert_allclose(p, ndtr(-t / 2.0), rtol=1e-14)

    def test_perfectly_correlated_collapses_to_one_dimension(self):
        # rank-1 covariance: both components move together
        sigma = np.ones((2, 2))
        assert_allclose(mvn_upper_tail(sigma, [0.4, 0.4]), ndtr(-0.4), atol=5e-4)


# Four components, so that mvn_upper_tail integrates
SIGMA_4 = np.array([[1.0, 0.4, 0.1, 0.2], [0.4, 1.0, 0.3, -0.1],
                    [0.1, 0.3, 1.0, 0.25], [0.2, -0.1, 0.25, 1.0]])
T_4 = np.array([0.1, 0.2, -0.1, 0.3])


class TestReproducibility:
    def test_same_seed_same_answer(self):
        assert mvn_upper_tail(SIGMA_4, T_4) == mvn_upper_tail(SIGMA_4, T_4)

    def test_default_call_matches_explicit_seed(self):
        assert mvn_upper_tail(SIGMA_4, T_4) == mvn_upper_tail(SIGMA_4, T_4, seed=20210802)

    def test_full_output_error_is_small(self):
        p, err = mvn_upper_tail(SIGMA_4, T_4, full_output=True)
        assert 0.0 <= p <= 1.0
        assert 0.0 < err <= 1e-4


class TestInputValidation:
    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="NaN"):
            mvn_upper_tail(np.eye(2), [0.0, np.nan])

    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ValueError, match="symmetric"):
            mvn_upper_tail(np.array([[1.0, 0.5], [0.1, 1.0]]), [0.0, 0.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            mvn_upper_tail(np.eye(3), [0.0, 0.0])

    def test_rejects_indefinite_sigma(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            mvn_upper_tail(sigma, [0.0, 0.0])


@st.composite
def orthant_problems(draw):
    """A PSD Sigma of rank 1..K, thresholds with some -inf, and settings."""
    K = draw(st.integers(2, 12))
    rank = draw(st.integers(1, K))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.standard_normal((K, rank))
    t = rng.uniform(-2.0, 2.0, K)
    # at most K - 2 components drop out, so at least two are integrated
    t[sorted(draw(st.sets(st.integers(0, K - 1), max_size=K - 2)))] = -np.inf
    kw = dict(
        n_points=draw(st.integers(16, 400)),
        n_shifts=draw(st.integers(2, 12)),
        error_target=draw(st.sampled_from([1e-4, 1e-12])),  # 1e-12 forces every doubling
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )
    return A @ A.T, t, kw


@st.composite
def reorder_problems(draw):
    """A PSD Sigma of rank 0..K with some zero-variance variables, and limits.

    Unless ``below`` is drawn, every zero-variance variable lies at or
    above its limit, where the scalar loop is free of 0 * inf.
    """
    K = draw(st.integers(1, 15))
    rank = draw(st.integers(0, K))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.standard_normal((K, rank))
    zero = sorted(draw(st.sets(st.integers(0, K - 1), max_size=K - 1)))
    A[zero] = 0.0
    upper = rng.uniform(-2.0, 2.0, K)
    upper[rng.random(K) < 0.2] = 0.0
    if not draw(st.booleans()):
        upper[zero] = np.abs(upper[zero])  # every zero-variance variable at or above its limit
    return A @ A.T, upper


class TestReorderAgainstScalarLoop:
    """The vectorized reordering picks the scalar loop's pivots."""

    @staticmethod
    def check(sigma, upper):
        C, u = inference._reorder_cholesky(sigma, upper)
        assert np.isfinite(C).all()
        assert np.array_equal(np.sort(u), np.sort(upper))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                C_ref, u_ref = reference_reorder(sigma, upper)
            except RuntimeWarning:
                # The scalar loop's own fault: a degenerate variable below
                # its limit gets y = -inf, and 0 * -inf = nan reorders the
                # rest.  The vectorized loop keeps that y at 0.
                return False
        assert np.array_equal(u, u_ref)
        assert_allclose(C, C_ref, rtol=0.0, atol=1e-12)
        return True

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(problem=reorder_problems())
    def test_matches_scalar_loop(self, problem):
        self.check(*problem)

    @pytest.mark.parametrize("sizes", [[50] * 10, [2] * 10, [3, 3, 3, 3, 200], [1, 1, 4]])
    @pytest.mark.parametrize("level", [-3.05, -1.0])
    def test_matches_scalar_loop_on_count_covariances(self, sizes, level):
        # exchangeable pairs give exactly tied pivots; [1, 1, 4] has a
        # zero-variance pair
        sigma = build_sigma(MomentContext(sizes))
        assert self.check(sigma, -level * np.sqrt(np.diag(sigma)))


class TestAgainstReferenceLoop:
    """The row-contiguous, memoized engine gives the earlier loop's answers."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(problem=orthant_problems())
    def test_matches_reference(self, problem):
        sigma, t, kw = problem
        got = orthant(sigma, t, **kw)
        want = reference_upper_tail(sigma, t, **kw)
        assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_matches_reference_at_k45(self):
        sigma = build_sigma(MomentContext([50] * 10))
        t = -3.05 * np.sqrt(np.diag(sigma))  # near the level-0.05 root
        got = mvn_upper_tail(sigma, t, full_output=True)
        assert_allclose(got, reference_upper_tail(sigma, t), rtol=0.0, atol=1e-14)


class TestMemo:
    SIGMA = SIGMA_4
    T = T_4

    @pytest.fixture
    def integrations(self, monkeypatch):
        """Count the integrations the engine runs, starting from an empty memo."""
        calls = []
        factor = inference._reorder_cholesky

        def counting(*args):
            calls.append(1)
            return factor(*args)

        inference._orthant.cache_clear()
        monkeypatch.setattr(inference, "_reorder_cholesky", counting)
        return calls

    def test_repeat_call_is_remembered(self, integrations):
        first = mvn_upper_tail(self.SIGMA, self.T, full_output=True)
        second = mvn_upper_tail(self.SIGMA.copy(), list(self.T), full_output=True)
        assert second == first
        assert len(integrations) == 1

    @pytest.mark.parametrize(
        "change",
        [
            dict(thresholds=np.array([0.1, 0.2, -0.2, 0.3])),
            dict(seed=1),
            dict(n_points=5_000),
            dict(n_shifts=10),
            dict(error_target=1e-5),
        ],
    )
    def test_changed_input_integrates_afresh(self, integrations, change):
        base = dict(thresholds=self.T)
        mvn_upper_tail(self.SIGMA, full_output=True, **base)
        changed = mvn_upper_tail(self.SIGMA, full_output=True, **{**base, **change})
        assert len(integrations) == 2
        want = reference_upper_tail(self.SIGMA, **{**base, **change})
        assert_allclose(changed, want, rtol=0.0, atol=1e-14)

    def test_caller_mutation_cannot_reach_the_memo(self, integrations):
        sigma = self.SIGMA.copy()
        before = mvn_upper_tail(sigma, self.T, full_output=True)
        sigma *= 2.0
        assert mvn_upper_tail(self.SIGMA, self.T, full_output=True) == before
        after = mvn_upper_tail(sigma, self.T, full_output=True)
        assert_allclose(after, reference_upper_tail(2.0 * self.SIGMA, self.T), rtol=0.0, atol=1e-14)

    def test_threads_share_the_memo(self):
        # More workers than cores and a short switch interval, so calls on
        # the same keys interleave inside the memo.
        problems = [(self.SIGMA, self.T + 0.05 * i) for i in range(12)]
        jobs = [i % len(problems) for i in range(96)]
        inference._orthant.cache_clear()
        serial = [mvn_upper_tail(*p, n_points=200, full_output=True) for p in problems]
        inference._orthant.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                futures = [
                    ex.submit(mvn_upper_tail, *problems[i], n_points=200, full_output=True)
                    for i in jobs
                ]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [serial[i] for i in jobs]
        info = inference._orthant.cache_info()
        assert info.hits + info.misses == len(jobs)
        assert info.currsize == len(problems)

    def test_memo_is_bounded(self):
        maxsize = inference._orthant.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize == inference._MVN_MEMO_SIZE
