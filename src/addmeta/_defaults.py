"""Defaults that the estimators and the CLI parser share; this module imports no numpy."""

DEFAULT_SEED = 20270405
DEFAULT_ITERATIONS = 10_000
