"""Meta-analysis of genetic association studies under the additive model."""

from .bias_study import Scenario, run_scenario
from .effects import StudySummary, crude_beta, crude_effect
from .odds_recovery import ORRecord, combine_reported_ors
from .pooling import pool_random_effects
from .simulate import SimConfig, sim_effect

__version__ = "0.1.0"

__all__ = [
    "ORRecord",
    "Scenario",
    "SimConfig",
    "StudySummary",
    "combine_reported_ors",
    "crude_beta",
    "crude_effect",
    "pool_random_effects",
    "run_scenario",
    "sim_effect",
]
