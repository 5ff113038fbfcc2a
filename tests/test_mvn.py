"""Tests for the multivariate-normal upper-tail integrator.

Oracles: closed-form orthant probabilities in two and three dimensions,
the independence product rule, plain Monte Carlo for a general
correlated case, and the engine's earlier per-shift integration loop on
a (points, n - 1) lattice matrix, kept here as ``reference_upper_tail``.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from relevance_kit import inference
from relevance_kit.inference import mvn_upper_tail
from relevance_kit.moments import MomentContext, build_sigma


def orthant_2d(rho):
    """P(Z1 > 0, Z2 > 0) for standard bivariate normal with correlation rho."""
    return 0.25 + np.arcsin(rho) / (2.0 * np.pi)


def orthant_3d(rho):
    """P(all three > 0) under equicorrelation rho (rho > -1/2)."""
    return 0.125 + 3.0 * np.arcsin(rho) / (4.0 * np.pi)


def reference_upper_tail(sigma, thresholds, *, n_points=10_000, n_shifts=12,
                         error_target=1e-4, seed=20210802):
    """(P(Z > t), standard error) by the engine's earlier loop, unmemoized.

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


class TestReproducibility:
    def test_same_seed_same_answer(self):
        sigma = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.3], [0.1, 0.3, 1.0]])
        t = [0.1, 0.2, -0.1]
        assert mvn_upper_tail(sigma, t) == mvn_upper_tail(sigma, t)

    def test_default_call_matches_explicit_seed(self):
        sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert mvn_upper_tail(sigma, [0.0, 0.5]) == mvn_upper_tail(
            sigma, [0.0, 0.5], seed=20210802
        )

    def test_full_output_error_is_small(self):
        sigma = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.3], [0.1, 0.3, 1.0]])
        p, err = mvn_upper_tail(sigma, [0.1, 0.2, -0.1], full_output=True)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= err <= 1e-4


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


class TestAgainstReferenceLoop:
    """The row-contiguous, memoized engine gives the earlier loop's answers."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(problem=orthant_problems())
    def test_matches_reference(self, problem):
        sigma, t, kw = problem
        got = mvn_upper_tail(sigma, t, full_output=True, **kw)
        want = reference_upper_tail(sigma, t, **kw)
        assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_matches_reference_at_k45(self):
        sigma = build_sigma(MomentContext([50] * 10))
        t = -3.05 * np.sqrt(np.diag(sigma))  # near the level-0.05 root
        got = mvn_upper_tail(sigma, t, full_output=True)
        assert_allclose(got, reference_upper_tail(sigma, t), rtol=0.0, atol=1e-14)


class TestMemo:
    SIGMA = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.3], [0.1, 0.3, 1.0]])
    T = np.array([0.1, 0.2, -0.1])

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
            dict(thresholds=np.array([0.1, 0.2, -0.2])),
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
