"""Tests for Gaussian data generation and the power harness."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import lfilter

from relevance_kit import cost, inference, shp, sim
from relevance_kit.cost import average_cost, diff_augmented_cost, gamma_cost
from relevance_kit.sim import (
    CovSpec,
    SimCase,
    ar1,
    estimate_power,
    gen_gaussian,
    preset_case,
    resolve_cost,
    scaled_identity,
)


class TestCovSpec:
    def test_ar1_constructor(self):
        spec = ar1(0.3, 2.0)
        assert spec.rho == 0.3
        assert spec.sigma2 == 2.0

    def test_scaled_identity_is_uncorrelated(self):
        assert scaled_identity(1.5) == CovSpec(rho=0.0, sigma2=1.5)

    @pytest.mark.parametrize("rho", [-1.0, 1.0, 1.7])
    def test_rejects_rho_outside_open_interval(self, rho):
        with pytest.raises(ValueError, match="rho"):
            CovSpec(rho=rho)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0])
    def test_rejects_nonpositive_variance(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            CovSpec(rho=0.1, sigma2=sigma2)

    @pytest.mark.parametrize("rho, sigma2", [(False, 1.0), ("0.2", 1.0), (np.bool_(False), 1.0),
                                             (0.2, True), (0.2, "1"), (0.2, float("inf"))])
    def test_rejects_parameters_that_are_not_real_numbers(self, rho, sigma2):
        with pytest.raises(ValueError, match="rho must be in|sigma2 must be positive"):
            CovSpec(rho=rho, sigma2=sigma2)


class TestSimCase:
    def test_properties(self):
        case = SimCase(sizes=(3, 4), d=10, means=(0.0, 0.5), covs=(ar1(0.1), ar1(0.2)))
        assert case.k == 2
        assert case.n_total == 7

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one entry per group"):
            SimCase(sizes=(3, 4), d=10, means=(0.0,), covs=(ar1(0.1), ar1(0.2)))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="positive integers"):
            SimCase(sizes=(3, 0), d=10, means=(0.0, 0.0), covs=(ar1(0.1), ar1(0.1)))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            SimCase(sizes=(3, 4), d=0, means=(0.0, 0.0), covs=(ar1(0.1), ar1(0.1)))

    @pytest.mark.parametrize("sizes", [(20.7, 30), (True, 30), (20, np.bool_(True)), (20, float("nan")),
                                       (20, float("inf")), ("20", 30)])
    def test_rejects_sizes_that_are_not_whole(self, sizes):
        with pytest.raises(ValueError, match="sizes must be positive integers"):
            SimCase(sizes=sizes, d=10, means=(0.0, 0.0), covs=(ar1(0.1), ar1(0.1)))

    @pytest.mark.parametrize("d", [10.9, True, float("nan"), "10", None])
    def test_rejects_dimension_that_is_not_whole(self, d):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            SimCase(sizes=(3, 4), d=d, means=(0.0, 0.0), covs=(ar1(0.1), ar1(0.1)))

    def test_integral_floats_and_numpy_integers_are_whole(self):
        case = SimCase(sizes=(20.0, np.int64(30)), d=np.float64(10.0), means=(0.0, 0.0),
                       covs=(ar1(0.1), ar1(0.1)))
        assert case.sizes == (20, 30) and case.d == 10
        assert all(type(n) is int for n in case.sizes) and type(case.d) is int

    @pytest.mark.parametrize("means", [(True, False), (0.0, np.bool_(True)), (0, "1"),
                                       (0.0, float("inf")), (float("nan"), 0.0), (0.0, None)])
    def test_rejects_means_that_are_not_finite_real_numbers(self, means):
        with pytest.raises(ValueError, match="means must be finite real numbers"):
            SimCase(sizes=(3, 4), d=10, means=means, covs=(ar1(0.1), ar1(0.1)))

    def test_numpy_and_integer_parameters_are_stored_as_floats(self):
        case = SimCase(sizes=(3, 4), d=10, means=(0, np.float32(0.5)),
                       covs=(CovSpec(rho=np.float64(0.1), sigma2=np.int64(2)), CovSpec(rho=0)))
        assert case.means == (0.0, 0.5) and case.covs == (ar1(0.1, 2.0), ar1(0.0))
        assert all(type(v) is float for c in case.covs for v in (c.rho, c.sigma2))
        assert all(type(m) is float for m in case.means)

    def test_integers_beyond_float_range_are_out_of_range(self):
        big = 10 ** 400
        with pytest.raises(ValueError, match="sizes must be positive integers"):
            SimCase(sizes=(3, big), d=10, means=(0.0, 0.0), covs=(ar1(0.1), ar1(0.1)))
        with pytest.raises(ValueError, match="means must be finite real numbers"):
            SimCase(sizes=(3, 4), d=10, means=(0.0, big), covs=(ar1(0.1), ar1(0.1)))
        with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
            ar1(0.1, big)
        case = SimCase(sizes=(3, 4), d=10, means=(0, 2 ** 70), covs=(ar1(0.1), ar1(0.1, 2 ** 70)))
        assert case.means == (0.0, 2.0 ** 70) and case.covs[1].sigma2 == 2.0 ** 70

    def test_rejects_a_design_whose_data_and_cost_matrix_exceed_memory(self, monkeypatch):
        need = 8 * 7 * 10 + 8 * (7 * 7 + 4 * cost._STRIP_CELLS)  # data, matrix and four strips
        monkeypatch.setattr(cost, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=r"N=7 observations in d=10 dimensions need about"):
            SimCase(sizes=(3, 4), d=10, means=(0.0, 0.0), covs=(ar1(0.1), ar1(0.1)))
        monkeypatch.setattr(cost, "_physical_memory_bytes", lambda: need)
        assert SimCase(sizes=(3, 4), d=10, means=(0.0, 0.0), covs=(ar1(0.1), ar1(0.1))).d == 10

    def test_rejects_raw_cov_parameters(self):
        with pytest.raises(TypeError, match="CovSpec"):
            SimCase(sizes=(3, 4), d=10, means=(0.0, 0.0), covs=(0.2, 0.4))


def lfilter_reference(case, seed):
    """Data of ``case``: per-group innovations through ``scipy.signal.lfilter``, the AR(1) oracle."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n, mu, cov in zip(case.sizes, case.means, case.covs):
        e = rng.standard_normal((n, case.d))
        sig = np.sqrt(cov.sigma2)
        e[:, 0] *= sig
        if case.d > 1:
            e[:, 1:] *= sig * np.sqrt(1.0 - cov.rho ** 2)
        blocks.append(lfilter([1.0], [1.0, -cov.rho], e, axis=1) + mu)
    return np.concatenate(blocks, axis=0)


class TestGenGaussian:
    @pytest.mark.parametrize("sigma2", [1.0, 2.5])
    @pytest.mark.parametrize("d", [1, 2, 500])
    @pytest.mark.parametrize("rho", [0.0, 0.2, 0.6, -0.4, 0.95])
    def test_matches_per_group_lfilter(self, rho, d, sigma2):
        # a one-row group, and a middle group with its own rho and sigma2,
        # so every row of the recursion needs its own coefficient
        case = SimCase(sizes=(1, 4, 6), d=d, means=(0.0, 0.5, -0.2),
                       covs=(ar1(rho, sigma2), ar1(0.3, 1.7), ar1(rho, sigma2)))
        for seed in (0, (7, 3)):
            data, _ = gen_gaussian(case, seed=seed)
            assert data.flags.c_contiguous
            assert np.array_equal(data, lfilter_reference(case, seed))

    def test_preset_case_matches_per_group_lfilter(self):
        case = preset_case(5, d=500)
        for trial in range(5):
            assert np.array_equal(gen_gaussian(case, seed=(0, trial))[0],
                                  lfilter_reference(case, (0, trial)))

    def test_shapes_and_labels(self):
        case = SimCase(sizes=(3, 5), d=7, means=(0.0, 1.0), covs=(ar1(0.2), ar1(0.3)))
        data, groups = gen_gaussian(case)
        assert data.shape == (8, 7)
        assert list(groups.labels) == [1] * 3 + [2] * 5
        assert list(groups.sizes) == [3, 5]

    def test_reproducible_from_case_seed(self):
        case = SimCase(sizes=(4, 4), d=6, means=(0.0, 0.0), covs=(ar1(0.2), ar1(0.2)), seed=42)
        d1, _ = gen_gaussian(case)
        d2, _ = gen_gaussian(case)
        assert np.array_equal(d1, d2)

    def test_seed_argument_overrides_case_seed(self):
        case = SimCase(sizes=(4, 4), d=6, means=(0.0, 0.0), covs=(ar1(0.2), ar1(0.2)), seed=42)
        assert not np.array_equal(gen_gaussian(case)[0], gen_gaussian(case, seed=43)[0])
        assert np.array_equal(gen_gaussian(case)[0], gen_gaussian(case, seed=42)[0])

    def test_mean_offset_applied_everywhere(self):
        case = SimCase(sizes=(200,), d=501, means=(0.3,), covs=(ar1(0.0),), seed=1)
        data, _ = gen_gaussian(case)
        assert data.mean() == pytest.approx(0.3, abs=0.02)

    def test_autoregressive_correlation_structure(self):
        """Lag-1 and lag-2 sample correlations must match rho and rho^2."""
        case = SimCase(sizes=(200,), d=501, means=(0.0,), covs=(ar1(0.2),), seed=2)
        data, _ = gen_gaussian(case)
        lag1 = np.corrcoef(data[:, :-1].ravel(), data[:, 1:].ravel())[0, 1]
        lag2 = np.corrcoef(data[:, :-2].ravel(), data[:, 2:].ravel())[0, 1]
        assert lag1 == pytest.approx(0.2, abs=0.01)
        assert lag2 == pytest.approx(0.04, abs=0.01)
        # stationary: every coordinate shares the same marginal variance
        assert data.var(axis=0).mean() == pytest.approx(1.0, abs=0.02)

    def test_scaled_identity_variance_and_independence(self):
        case = SimCase(sizes=(200,), d=501, means=(0.0,), covs=(scaled_identity(2.5),), seed=3)
        data, _ = gen_gaussian(case)
        assert data.var() == pytest.approx(2.5, abs=0.05)
        lag1 = np.corrcoef(data[:, :-1].ravel(), data[:, 1:].ravel())[0, 1]
        assert lag1 == pytest.approx(0.0, abs=0.01)


class TestPresetCase:
    def test_null_case(self):
        case = preset_case(0, d=64)
        assert case.sizes == (20, 40)
        assert case.means == (0.0, 0.0)
        assert all(c.rho == 0.0 and c.sigma2 == 1.0 for c in case.covs)
        assert case.d == 64

    def test_two_sample_location_case(self):
        case = preset_case(1)
        assert case.sizes == (20, 40)
        assert case.means == (0.0, 0.1)
        assert case.covs == (ar1(0.2), ar1(0.2))

    def test_two_sample_combined_case(self):
        case = preset_case(3)
        assert case.means == (0.0, 0.1)
        assert case.covs == (ar1(0.2), ar1(0.4))

    def test_three_sample_scale_ladder_case(self):
        case = preset_case(5)
        assert case.sizes == (20, 30, 40)
        assert case.means == (0.0, 0.0, 0.1)
        assert tuple(c.rho for c in case.covs) == (0.2, 0.4, 0.6)

    def test_three_sample_two_sided_location_case(self):
        assert preset_case(6).means == (0.0, -0.1, 0.1)

    def test_seed_flows_through(self):
        assert preset_case(2, seed=(9, 1)).seed == (9, 1)

    @pytest.mark.parametrize("bad", [-1, 7, "one"])
    def test_rejects_unknown_id(self, bad):
        with pytest.raises(ValueError, match="expected 0..6"):
            preset_case(bad)


class TestResolveCost:
    def test_callable_passes_through(self):
        fn = lambda X: X
        assert resolve_cost(fn) is fn

    def test_named_selectors(self):
        assert resolve_cost("average") is average_cost
        assert resolve_cost("diff") is diff_augmented_cost

    def test_gamma_selector_binds_exponent(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 5))
        assert_allclose(resolve_cost("gamma:0.5")(X), gamma_cost(X, 0.5), rtol=1e-12)

    def test_rejects_malformed_gamma(self):
        with pytest.raises(ValueError, match="malformed gamma selector"):
            resolve_cost("gamma:abc")

    @pytest.mark.parametrize("selector", ["gamma:0", "gamma:2.5", "gamma:nan", "gamma:-1"])
    def test_rejects_gamma_out_of_range_when_resolved(self, selector):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 2\]"):
            resolve_cost(selector)

    def test_rejects_unknown_selector(self):
        with pytest.raises(ValueError, match="unknown cost selector"):
            resolve_cost("euclid")

    def test_rejects_non_string_non_callable(self):
        with pytest.raises(TypeError, match="callable or selector"):
            resolve_cost(3.0)


class TestEstimatePower:
    @pytest.fixture
    def strong_shift(self):
        return SimCase(
            sizes=(10, 10), d=20, means=(0.0, 10.0), covs=(ar1(0.0), ar1(0.0)), seed=0
        )

    def test_obvious_alternative_always_rejected(self, strong_shift):
        assert estimate_power(strong_shift, "gamma:1.0", "ws", trials=50) == 1.0
        assert estimate_power(strong_shift, "gamma:1.0", "min", trials=50) == 1.0

    def test_null_rejection_stays_near_alpha(self):
        power = estimate_power(preset_case(0, d=50), "gamma:1.0", "ws", trials=100, seed=17)
        assert power <= 0.15

    def test_deterministic(self, strong_shift):
        case = preset_case(1, d=30)
        p1 = estimate_power(case, "gamma:1.0", "ws", trials=50, seed=5)
        p2 = estimate_power(case, "gamma:1.0", "ws", trials=50, seed=5)
        assert p1 == p2

    def test_aliases_agree(self):
        case = preset_case(1, d=30)
        assert estimate_power(case, "gamma:1.0", "ws", trials=50) == estimate_power(
            case, "gamma:1.0", "weighted_sum", trials=50
        )

    def test_thread_count_does_not_change_result(self, monkeypatch):
        case = preset_case(1, d=30)
        serial = estimate_power(case, "gamma:1.0", "min", trials=50, seed=2)
        monkeypatch.setenv("RELEVANCE_THREADS", "2")
        assert estimate_power(case, "gamma:1.0", "min", trials=50, seed=2) == serial

    def test_minimum_power_independent_of_threads_with_shared_memo(self, monkeypatch):
        # Each run starts from an empty MVN memo.  k = 4 gives K = 6 pairs,
        # whose tails are integrated, so the threaded run's workers share the
        # memo: its 50 p-values come from 4 distinct integrals.
        case = SimCase(sizes=(8, 8, 8, 8), d=20, means=(0.0, 0.0, 0.0, 0.5), covs=(ar1(0.0),) * 4)
        powers = []
        for threads in ("1", "2"):
            inference._tail.cache_clear()
            monkeypatch.setenv("RELEVANCE_THREADS", threads)
            powers.append(estimate_power(case, "gamma:1.0", "min", trials=50, seed=3))
        assert powers[0] == powers[1]
        assert 0.0 < powers[0] < 1.0

    def test_minimum_power_computes_each_distinct_tail_once(self, monkeypatch):
        # k = 3 (K = 3 pairs): the exact tails are remembered as the
        # integrated ones are, so a repeated minimum statistic costs none.
        # Serial, so that no two workers miss on one key at once.
        case = preset_case(5, d=30)
        statistics, test = [], sim.minimum_test

        def recording(*args):
            result = test(*args)
            statistics.append(result.statistic)
            return result

        monkeypatch.setattr(sim, "minimum_test", recording)
        monkeypatch.setenv("RELEVANCE_THREADS", "1")
        inference._tail.cache_clear()
        estimate_power(case, "gamma:1.0", "min", trials=50, seed=3)
        info = inference._tail.cache_info()
        assert info.misses == len(set(statistics)) < len(statistics) == 50
        assert info.hits == len(statistics) - info.misses

    def test_minimum_power_roots_nothing(self, monkeypatch):
        # The test decides by its p-value, so no trial finds a critical value.
        case = preset_case(5, d=20)
        expected = estimate_power(case, "gamma:1.0", "min", trials=50, seed=3)

        def no_root(*args):
            raise AssertionError("a power study must not root the minimum test's tail")

        monkeypatch.setattr(inference, "_min_critical", no_root)
        for threads in ("1", "2"):
            monkeypatch.setenv("RELEVANCE_THREADS", threads)
            assert estimate_power(case, "gamma:1.0", "min", trials=50, seed=3) == expected

    def test_each_trial_seeds_its_own_path(self, strong_shift, monkeypatch):
        # a callable cost can tie, so each trial orders its ties by its own seed
        seeds = []

        def recording(costs, seed=0):
            seeds.append(seed)
            return shp.approximate_shp(costs, seed)

        monkeypatch.setattr(sim, "approximate_shp", recording)
        estimate_power(strong_shift, lambda x: np.round(gamma_cost(x, 1.0)), "ws", trials=50, seed=6)
        assert seeds == [(6, t) for t in range(50)]

    @pytest.mark.parametrize("threads, trials", [("1", 10**5), ("2", 10**4)])
    def test_trials_are_streamed(self, strong_shift, monkeypatch, threads, trials):
        # A list of every trial's seed held about 95 bytes a trial, and a
        # pool fed all trials at once held a future for each.
        def every_third(case, cost_fn, test, alpha, ctx, w, seed):
            return seed[1] % 3 == 0

        monkeypatch.setattr(sim, "_run_trial", every_third)
        monkeypatch.setenv("RELEVANCE_THREADS", threads)
        tracemalloc.start()
        try:
            power = estimate_power(strong_shift, "gamma:1.0", "ws", trials=trials, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert power == (trials + 2) // 3 / trials  # each trial counted once
        assert peak < 2**20

    def test_rejects_too_few_trials(self, strong_shift):
        with pytest.raises(ValueError, match="at least 50"):
            estimate_power(strong_shift, "gamma:1.0", "ws", trials=10)

    def test_rejects_unknown_test(self, strong_shift):
        with pytest.raises(ValueError, match="unknown test selector 'median'"):
            estimate_power(strong_shift, "gamma:1.0", "median", trials=50)
