"""Robust nonparametric credible intervals from bounded observations.

Observations plus a bounding interval induce a posterior over imprecise
step distributions (probability boxes); resampling it yields conservative
credible intervals for monotonic population parameters.
"""

__version__ = "0.1.0"

from .baselines import (
    CoverageReport,
    ExtremeMixture,
    TruncatedLognormal,
    bayesian_bootstrap_interval,
    bootstrap_interval,
    coverage_experiment,
    generate,
    student_t_interval,
)
from .bis import (
    BetaParams,
    BisConfig,
    ImpreciseRealization,
    QSamples,
    bis_run,
    default_n_resample,
    interval_estimate,
    point_condition_betas,
    probabilistic_projection_params,
    sample_realization,
)
from .dirichlet import (
    merge_duplicates,
    sample_dirichlet,
    sample_split_index,
    sample_unit_dp_grid,
    sample_unit_dp_stick,
)
from .functionals import (
    Functional,
    q_cvar,
    q_mean,
    q_quantile,
    q_truncated_mean,
)
from .pbox import (
    BoundingInterval,
    ExtendedOrderStats,
    IntervalEstimate,
    ProbabilityBox,
    WeightedStepCdf,
    expected_pbox,
    interval_probability,
    make_extended_order_stats,
)

__all__ = [
    "BetaParams",
    "BisConfig",
    "BoundingInterval",
    "CoverageReport",
    "ExtendedOrderStats",
    "ExtremeMixture",
    "Functional",
    "ImpreciseRealization",
    "IntervalEstimate",
    "ProbabilityBox",
    "QSamples",
    "TruncatedLognormal",
    "WeightedStepCdf",
    "bayesian_bootstrap_interval",
    "bis_run",
    "bootstrap_interval",
    "coverage_experiment",
    "default_n_resample",
    "expected_pbox",
    "generate",
    "interval_estimate",
    "interval_probability",
    "make_extended_order_stats",
    "merge_duplicates",
    "point_condition_betas",
    "probabilistic_projection_params",
    "q_cvar",
    "q_mean",
    "q_quantile",
    "q_truncated_mean",
    "sample_dirichlet",
    "sample_realization",
    "sample_split_index",
    "sample_unit_dp_grid",
    "sample_unit_dp_stick",
    "student_t_interval",
]
