"""Simulation-based additive effect estimator.

Instead of standardizing the reported summary statistics directly, this
estimator regenerates plausible individual-level data: each iteration draws
every genotype group from a normal distribution with the reported mean and
standard deviation, fits the additive regression on group codes (1, 2, 3),
and divides the slope by the fit's residual standard deviation.  Cohen's d
is averaged over the iterations, and the averaged d then goes through the
same pairwise d-to-g machinery as the crude estimator.

The fit depends on a drawn dataset only through its three group means and
its within-group sum of squares, and under normal regeneration these are
independent: group k's mean is N(m_k, sd_k^2 / n_k) and its sum of squares
is sd_k^2 * chi-square(n_k - 1).  Each iteration therefore draws these
sufficient statistics (six numbers) instead of N individuals; the
estimate has the same distribution.  All iterations of a study draw from
one random substream keyed by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import SIM_DRAWS, substream
from .effects import AdditiveEffect, StudySummary, effect_from_d

DEFAULT_SEED = 20270405
DEFAULT_ITERATIONS = 10_000


class DegenerateSampleError(RuntimeError):
    """Raised when a drawn sample has zero variance everywhere."""


@dataclass(frozen=True)
class SimConfig:
    """Iteration count and seed for the simulation estimator."""

    iterations: int = DEFAULT_ITERATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class SimDraw:
    """Additive fit of one drawn dataset: slope, residual sd, their ratio."""

    beta: float
    sd: float
    d: float


@dataclass(frozen=True)
class SimStats:
    """Iteration averages (and the empirical standard error of mean d)."""

    beta_mean: float
    sd_beta_mean: float
    d_mean: float
    d_se: float
    iterations: int


class _Design:
    """Constants of the additive regression for fixed group sizes."""

    def __init__(self, n: Sequence[int]):
        self.n = np.asarray(n, dtype=float)
        self.codes = np.array([1.0, 2.0, 3.0])
        self.n_total = float(self.n.sum())
        self.code_mean = float((self.n * self.codes).sum() / self.n_total)
        self.s_xx = float((self.n * (self.codes - self.code_mean) ** 2).sum())


def _residual_sd(design: _Design, means: np.ndarray, sse_within: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Residual standard deviation of the additive fit, sqrt(RSS / (N - 2)).

    ``means`` is (iterations, 3), ``sse_within`` the per-iteration sum of
    squared deviations from the group means.  RSS is the within-group sum of
    squares plus the group means' lack of fit to the line; summing the two
    nonnegative parts avoids cancellation when both are tiny.
    """
    grand = (means * design.n).sum(axis=1) / design.n_total
    intercept = grand - betas * design.code_mean
    fitted = intercept[:, None] + betas[:, None] * design.codes[None, :]
    lack_of_fit = (design.n * (means - fitted) ** 2).sum(axis=1)
    return np.sqrt((sse_within + lack_of_fit) / (design.n_total - 2.0))


def _slope(design: _Design, means: np.ndarray) -> np.ndarray:
    centered = design.codes - design.code_mean
    grand = (means * design.n).sum(axis=1) / design.n_total
    s_xy = (centered * design.n * (means - grand[:, None])).sum(axis=1)
    return s_xy / design.s_xx


def additive_regression(groups: Sequence[np.ndarray]) -> SimDraw:
    """Fit the additive model to one individual-level dataset.

    ``groups`` holds the three per-group phenotype vectors.  Returns the
    least-squares slope on group codes (1, 2, 3), the residual standard
    deviation, and their ratio d.
    """
    if len(groups) != 3:
        raise ValueError(f"expected 3 groups, got {len(groups)}")
    design = _Design([len(g) for g in groups])
    means = np.array([[float(np.mean(g)) for g in groups]])
    sse = np.array([sum(float(((g - np.mean(g)) ** 2).sum()) for g in groups)])
    beta = _slope(design, means)
    sd = _residual_sd(design, means, sse, beta)
    if sd[0] == 0.0:
        raise DegenerateSampleError("sample has zero variance in every group and no slope")
    return SimDraw(beta=float(beta[0]), sd=float(sd[0]), d=float(beta[0] / sd[0]))


def _draws(summary: StudySummary, config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-iteration slope, residual sd and d of the regenerated datasets."""
    design = _Design(summary.n)
    rng = substream(config.seed, SIM_DRAWS)
    shape = (config.iterations, 3)
    sd = np.asarray(summary.sd, dtype=float)
    means = rng.normal(summary.m, sd / np.sqrt(design.n), shape)
    sse = (sd * sd * rng.chisquare(design.n - 1.0, shape)).sum(axis=1)
    betas = _slope(design, means)
    sds = _residual_sd(design, means, sse, betas)
    if np.any(sds == 0.0):
        raise DegenerateSampleError("zero-variance draw in simulation")
    return betas, sds, betas / sds


def simulate_study(summary: StudySummary, config: SimConfig = SimConfig()) -> SimStats:
    """Run the iterations and return their averages.

    Deterministic for a given (summary, seed, iterations).
    """
    betas, sds, ds = _draws(summary, config)
    n_iter = config.iterations
    d_se = float(ds.std(ddof=1)) / math.sqrt(n_iter) if n_iter > 1 else float("nan")
    return SimStats(
        beta_mean=float(betas.mean()),
        sd_beta_mean=float(sds.mean()),
        d_mean=float(ds.mean()),
        d_se=d_se,
        iterations=n_iter,
    )


def sim_effect(summary: StudySummary, config: SimConfig = SimConfig()) -> AdditiveEffect:
    """Simulation-based additive effect for one study.

    ``beta`` and ``sd_beta`` of the result are iteration means of the
    per-draw slope and residual sd; ``d`` is the iteration mean of the
    per-draw ratio (so ``d`` differs from ``beta/sd_beta`` by
    O(1/iterations)).  The
    pairwise g machinery is applied to the averaged d exactly as in the
    crude estimator.
    """
    stats = simulate_study(summary, config)
    return effect_from_d(
        summary.study_id, stats.beta_mean, stats.sd_beta_mean, stats.d_mean, summary.n, "simulation"
    )
