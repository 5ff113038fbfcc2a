"""Graph-based nonparametric k-sample comparison for high-dimensional data.

The pipeline: build a pairwise cost matrix from one of three cost
families (:mod:`~relevance_kit.cost`), trace an approximate shortest
Hamiltonian path through the pooled observations
(:mod:`~relevance_kit.shp`), count how often consecutive path edges
join different samples (:mod:`~relevance_kit.counts`), and compare
those counts to their closed-form permutation-null moments
(:mod:`~relevance_kit.moments`) with a weighted-sum or minimum
statistic (:mod:`~relevance_kit.inference`).  Pairwise relevance
z-scores (:mod:`~relevance_kit.relevance`) localize which samples
differ, and :mod:`~relevance_kit.sim` estimates power on Gaussian
designs.  The ``relevance-kit`` command line wraps everything.
"""

from .cost import (
    CostDiagnostics,
    average_cost,
    diff_augmented_cost,
    gamma_cost,
    validate_assumptions,
)
from .counts import GroupAssignment, count_between_unions, count_edges
from .inference import (
    TestResult,
    WeightMatrix,
    minimum_critical_value,
    minimum_statistic,
    minimum_test,
    mvn_upper_tail,
    permutation_pvalue,
    weighted_sum_statistic,
    weighted_sum_test,
)
from .moments import MomentContext, build_sigma, enumerate_null_moments
from .relevance import RelevanceReport, combined_z_score, relevance_report, z_score
from .shp import approximate_shp, brute_force_shp, path_cost
from .sim import (
    CovSpec,
    SimCase,
    ar1,
    estimate_power,
    gen_gaussian,
    preset_case,
    scaled_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # cost
    "gamma_cost",
    "average_cost",
    "diff_augmented_cost",
    "validate_assumptions",
    "CostDiagnostics",
    # shp
    "approximate_shp",
    "brute_force_shp",
    "path_cost",
    # counts
    "GroupAssignment",
    "count_edges",
    "count_between_unions",
    # moments
    "MomentContext",
    "build_sigma",
    "enumerate_null_moments",
    # inference
    "WeightMatrix",
    "TestResult",
    "weighted_sum_statistic",
    "weighted_sum_test",
    "minimum_statistic",
    "minimum_test",
    "minimum_critical_value",
    "mvn_upper_tail",
    "permutation_pvalue",
    # relevance
    "z_score",
    "combined_z_score",
    "relevance_report",
    "RelevanceReport",
    # sim
    "CovSpec",
    "ar1",
    "scaled_identity",
    "SimCase",
    "gen_gaussian",
    "preset_case",
    "estimate_power",
]
