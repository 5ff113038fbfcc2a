"""Acceptance suite: one test per release criterion.

Each test prints a single summary line with the measured quantity it
gates on.  Stochastic criteria run fixed seed banks, so the whole suite
is deterministic; tolerance bands include Monte-Carlo slack.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.special import ndtr

from relevance_kit.cost import diff_augmented_cost, gamma_cost
from relevance_kit.counts import GroupAssignment, count_between_unions, count_edges
from relevance_kit.inference import (
    WeightMatrix,
    minimum_test,
    mvn_upper_tail,
    permutation_pvalue,
    weighted_sum_test,
)
from relevance_kit.moments import MomentContext, build_sigma, enumerate_null_moments
from relevance_kit.shp import approximate_shp, brute_force_shp, check_path, path_cost
from relevance_kit.sim import SimCase, ar1, estimate_power, gen_gaussian, preset_case, scaled_identity


def all_size_configs(max_total=8, max_groups=4):
    """Every multiset of group sizes with 2 <= N <= max_total, k <= max_groups."""
    configs = []
    for k in range(1, max_groups + 1):
        for sizes in itertools.combinations_with_replacement(range(1, max_total + 1), k):
            if 2 <= sum(sizes) <= max_total:
                configs.append(sizes)
    return configs


def test_criterion_01_closed_form_moments_match_enumeration():
    start = time.monotonic()
    worst = 0.0
    n_configs = 0
    for sizes in all_size_configs():
        n_configs += 1
        k = len(sizes)
        enum = enumerate_null_moments(GroupAssignment(np.repeat(np.arange(1, k + 1), sizes)))
        ctx = MomentContext(np.array(sizes))

        def track(a, b):
            nonlocal worst
            worst = max(worst, abs(a - b))

        # every within and between mean and variance
        for m in range(1, k + 1):
            for l in range(m, k + 1):
                track(ctx.mean[m - 1, l - 1], enum.mean_of(m, l))
                track(ctx.var[m - 1, l - 1], enum.cov_of((m, l), (m, l)))
        # every covariance entry of the between counts
        pairs = [(i + 1, j + 1) for i, j in zip(*np.triu_indices(k, 1))]
        sigma = build_sigma(ctx)
        for a, p1 in enumerate(pairs):
            for b, p2 in enumerate(pairs):
                track(sigma[a, b], enum.cov_of(p1, p2))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 60.0
    print(
        f"criterion 01: PASS — {n_configs} configurations, max |closed - enumerated| "
        f"= {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_02_eight_node_fixture_counts():
    start = time.monotonic()
    assignment = GroupAssignment(np.array([1, 1, 2, 2, 3, 3, 4, 4]))
    path = np.array([1, 2, 3, 0, 4, 6, 7, 5])
    table = count_edges(path, assignment)
    assert table[0, 1] == 2  # first and second group
    assert table[0, 2] == 1
    assert table[2, 3] == 2
    assert table[0, 3] == 0
    assert table[1, 2] == 0
    assert table[1, 3] == 0
    assert count_between_unions(table, [1, 2], [3, 4]) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 02: PASS — all seven fixture counts exact, {elapsed * 1000:.0f}ms")


def test_criterion_03_null_size_calibration():
    case = preset_case(0, d=500)
    size_ws = estimate_power(case, "gamma:1.0", "ws", alpha=0.05, trials=500, seed=0)
    size_min = estimate_power(case, "gamma:1.0", "min", alpha=0.05, trials=500, seed=0)
    assert 0.025 <= size_ws <= 0.075
    assert 0.025 <= size_min <= 0.075
    print(
        f"criterion 03: PASS — null rejection rates ws={size_ws:.3f}, min={size_min:.3f} "
        f"within [0.025, 0.075] (500 trials)"
    )


def test_criterion_04_power_orderings():
    # (a) the combined location/scale design gains power with dimension
    p_low = estimate_power(preset_case(3, d=200), "diff", "ws", trials=200, seed=0)
    p_high = estimate_power(preset_case(3, d=1000), "diff", "ws", trials=200, seed=0)
    assert p_high >= p_low - 0.05
    # (b) at d=1000 the difference-augmented cost beats the Euclidean cost
    p_gamma2 = estimate_power(preset_case(3, d=1000), "gamma:2", "ws", trials=200, seed=0)
    assert p_high >= p_gamma2 - 0.05
    # (c) the three-sample scale ladder is detectable by the minimum test
    p_min = estimate_power(preset_case(5, d=1000), "diff", "min", trials=200, seed=0)
    assert p_min >= 0.5
    print(
        f"criterion 04: PASS — (a) d=200:{p_low:.3f} <= d=1000:{p_high:.3f}+0.05; "
        f"(b) gamma2:{p_gamma2:.3f} <= diff:{p_high:.3f}+0.05; (c) min power {p_min:.3f} >= 0.5"
    )


def test_criterion_05_high_dimensional_separation():
    hits = 0
    for s in range(100):
        case = SimCase(
            sizes=(10, 10), d=100_000, means=(0.0, 0.5), covs=(ar1(0.0), ar1(0.0)), seed=(5, s)
        )
        data, groups = gen_gaussian(case)
        path = approximate_shp(gamma_cost(data, 2.0))
        if count_edges(path, groups)[0, 1] <= 2:
            hits += 1
    assert hits >= 95
    print(f"criterion 05: PASS — between-count <= 2 in {hits}/100 high-dimensional replicates")


def test_criterion_06_mvn_engine_accuracy():
    start = time.monotonic()
    # diagonal covariances: tail factorizes exactly
    worst_diag = 0.0
    diag_cases = [
        (np.diag([1.0, 4.0, 0.25]), np.array([0.5, -1.0, 2.0])),
        (np.eye(2), np.array([0.0, 0.0])),
        (np.diag([2.0, 2.0, 2.0, 2.0]), np.array([1.0, 1.0, -1.0, 0.0])),
    ]
    for sigma, t in diag_cases:
        expected = float(np.prod(ndtr(-t / np.sqrt(np.diag(sigma)))))
        worst_diag = max(worst_diag, abs(mvn_upper_tail(sigma, t) - expected))
    assert worst_diag < 1e-3

    # correlated 3-D cases against plain Monte Carlo
    rng = np.random.default_rng(606)
    worst_ratio = 0.0
    for _ in range(3):
        A = rng.standard_normal((3, 3))
        sigma = A @ A.T + 0.3 * np.eye(3)
        t = rng.uniform(-0.5, 0.5, size=3) * np.sqrt(np.diag(sigma))
        p_qmc, err = mvn_upper_tail(sigma, t, full_output=True)
        Z = rng.standard_normal((1_000_000, 3)) @ np.linalg.cholesky(sigma).T
        p_mc = (Z > t).all(axis=1).mean()
        se_mc = np.sqrt(p_mc * (1.0 - p_mc) / 1_000_000)
        combined = np.sqrt(se_mc**2 + err**2)
        worst_ratio = max(worst_ratio, abs(p_qmc - p_mc) / (3.0 * combined))
        assert abs(p_qmc - p_mc) < 3.0 * combined
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 06: PASS — diagonal max err {worst_diag:.2e}; correlated cases within "
        f"{worst_ratio * 100:.0f}% of the 3-sigma band, {elapsed:.1f}s"
    )


def test_criterion_07_asymptotic_matches_permutation():
    case = SimCase(
        sizes=(20, 30, 40),
        d=500,
        means=(0.0, 0.0, 0.0),
        covs=(ar1(0.0), ar1(0.0), ar1(0.0)),
        seed=0,
    )
    ctx = MomentContext(np.array(case.sizes))
    w = WeightMatrix.default(ctx)
    gaps_ws, gaps_min = [], []
    for rep in range(50):
        data, groups = gen_gaussian(case, seed=(77, rep))
        path = approximate_shp(gamma_cost(data, 1.0))
        table = count_edges(path, groups)
        p_ws = weighted_sum_test(table, w, ctx).p_value
        p_min = minimum_test(table, w, ctx).p_value
        perm_ws = permutation_pvalue(path, groups, w, B=2000, seed=(77, rep, 1))["weighted_sum"]
        perm_min = permutation_pvalue(path, groups, w, B=2000, seed=(77, rep, 2))["minimum"]
        gaps_ws.append(abs(p_ws - perm_ws))
        gaps_min.append(abs(p_min - perm_min))
    med_ws = float(np.median(gaps_ws))
    med_min = float(np.median(gaps_min))
    assert med_ws < 0.03
    assert med_min < 0.03
    print(
        f"criterion 07: PASS — median |asymptotic - permutation| p gap: "
        f"ws={med_ws:.4f}, min={med_min:.4f} (50 replicates, B=2000)"
    )


def test_criterion_08_path_heuristic_validity_and_quality():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    ratios = []
    for _ in range(200):
        n = int(rng.integers(4, 10))
        A = rng.uniform(0.1, 3.0, size=(n, n))
        C = (A + A.T) / 2.0
        np.fill_diagonal(C, 0.0)
        p = approximate_shp(C)
        check_path(p, n)
        greedy = path_cost(p, C)
        exact = path_cost(brute_force_shp(C), C)
        assert greedy >= exact - 1e-9
        ratios.append(greedy / exact)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 08: PASS — 200 random instances all valid; cost ratio "
        f"mean={np.mean(ratios):.4f}, max={np.max(ratios):.4f}, {elapsed:.1f}s"
    )


def test_criterion_09_subsample_rejects_where_combined_cannot():
    """Two similar pairs hide inside merged super-groups.

    Groups 1 and 4 share one distribution, groups 2 and 3 another; the
    focused analysis on pairs (1,3) and (2,4) should reject while
    merging {1,2} vs {3,4} mixes like with like and fails.
    """
    base = dict(
        sizes=(20, 24, 26, 28),
        d=1000,
        means=(0.0, 0.01, 0.01, 0.0),
        covs=(
            scaled_identity(1.0),
            scaled_identity(1.1),
            scaled_identity(1.1),
            scaled_identity(1.0),
        ),
    )
    ctx = MomentContext(np.array(base["sizes"]))
    w_sub = WeightMatrix.default(ctx).with_zeroed_pairs([(1, 2), (1, 4), (2, 3), (3, 4)])
    joint = 0
    for seed in range(100):
        data, groups = gen_gaussian(SimCase(seed=(seed,), **base))
        path = approximate_shp(diff_augmented_cost(data))
        table = count_edges(path, groups)
        sub_ws = weighted_sum_test(table, w_sub, ctx, alpha=0.05).reject
        sub_min = minimum_test(table, w_sub, ctx, alpha=0.05).reject

        merged = GroupAssignment(np.where(groups.labels <= 2, 1, 2))
        merged_ctx = MomentContext.from_assignment(merged)
        merged_table = count_edges(path, merged)
        combined = weighted_sum_test(
            merged_table, WeightMatrix.default(merged_ctx), merged_ctx, alpha=0.05
        ).reject
        if sub_ws and sub_min and not combined:
            joint += 1
    assert joint >= 70
    print(
        f"criterion 09: PASS — focused test rejects while merged comparison fails in "
        f"{joint}/100 seeds"
    )


def test_criterion_10_two_group_test_equivalence():
    rng = np.random.default_rng(10)
    max_gap = 0.0
    for _ in range(100):
        n1 = int(rng.integers(8, 30))
        n2 = int(rng.integers(8, 30))
        d = int(rng.integers(20, 200))
        shift = rng.uniform(0.0, 0.6)
        data = rng.standard_normal((n1 + n2, d))
        data[n1:] += shift
        groups = GroupAssignment(np.repeat([1, 2], [n1, n2]))
        ctx = MomentContext.from_assignment(groups)
        w = WeightMatrix.default(ctx)
        path = approximate_shp(gamma_cost(data, 1.0))
        table = count_edges(path, groups)
        for alpha in (0.01, 0.05, 0.1):
            r_ws = weighted_sum_test(table, w, ctx, alpha=alpha)
            r_min = minimum_test(table, w, ctx, alpha=alpha)
            assert r_ws.reject == r_min.reject
            max_gap = max(max_gap, abs(r_ws.p_value - r_min.p_value))
        assert max_gap <= 1e-3
    print(
        f"criterion 10: PASS — decisions agree on 100/100 datasets at all levels; "
        f"max p gap {max_gap:.2e}"
    )
