"""Meta-analysis of genetic association studies under the additive model."""

from .bias_study import (
    DENSITIES,
    BiasReport,
    MixtureDensity,
    Scenario,
    perturb_study_params,
    run_scenario,
    sample_standardized,
)
from .effects import (
    AdditiveEffect,
    StudySummary,
    cohens_d_variance,
    crude_beta,
    crude_effect,
    hedges_j,
)
from .odds_recovery import (
    CandidateTable,
    CombinedOR,
    MergedTable,
    ORRecord,
    combine_reported_ors,
    combined_or,
    recover_tables,
    se_from_ci,
    select_pairing,
)
from .pooling import MetaResult, pool_random_effects
from .simulate import (
    SimConfig,
    additive_regression,
    sim_effect,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveEffect",
    "BiasReport",
    "CandidateTable",
    "CombinedOR",
    "DENSITIES",
    "MergedTable",
    "MetaResult",
    "MixtureDensity",
    "ORRecord",
    "Scenario",
    "SimConfig",
    "StudySummary",
    "additive_regression",
    "cohens_d_variance",
    "combine_reported_ors",
    "combined_or",
    "crude_beta",
    "crude_effect",
    "hedges_j",
    "perturb_study_params",
    "pool_random_effects",
    "recover_tables",
    "run_scenario",
    "sample_standardized",
    "se_from_ci",
    "select_pairing",
    "sim_effect",
]
