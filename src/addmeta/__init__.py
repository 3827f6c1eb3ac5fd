"""Meta-analysis of genetic association studies under the additive model.

The public names load their modules on first access, so importing the
package, or only the parts of it that need no numpy, does not load numpy.
"""

import importlib
import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "ORRecord": "odds_recovery",
    "Scenario": "bias_study",
    "SimConfig": "effects",
    "StudySummary": "effects",
    "combine_reported_ors": "odds_recovery",
    "crude_beta": "effects",
    "crude_effect": "effects",
    "pool_random_effects": "pooling",
    "run_scenario": "bias_study",
    "sim_effect": "simulate",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def _console_main() -> int:
    """The ``addmeta`` command: ``cli.main``, and Ctrl-C while it loads exits as Ctrl-C in a run does."""
    try:
        from .cli import main
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return main()
