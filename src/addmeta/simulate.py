"""Simulation-based additive effect estimator.

Instead of standardizing the reported summary statistics directly, this
estimator regenerates plausible individual-level data: each iteration draws
every genotype group from a normal distribution with the reported mean and
standard deviation, fits the additive regression on group codes (1, 2, 3),
and divides the slope by the fit's residual standard deviation.  Cohen's d
is averaged over the iterations, and the averaged d then goes through the
same pairwise d-to-g machinery as the crude estimator.

The fit depends on a drawn dataset only through its within-group sum of
squares (SSE) and two contrasts of its group means: the slope
beta = sum_k w_k m_k with w_k = n_k (c_k - cbar) / S_xx, and the curvature
c = m_1 - 2 m_2 + m_3, whose lack of fit c^2 / (1/n_1 + 4/n_2 + 1/n_3) adds
to the SSE to make RSS.  Under normal regeneration group k's mean is
N(m_k, sd_k^2 / n_k), so beta and c are jointly normal, and its SSE is an
independent sd_k^2 * chi-square(n_k - 1), a gamma with shape (n_k - 1) / 2
and scale 2 sd_k^2.  Each iteration therefore draws two correlated normals
(slope and curvature) and one scaled gamma per group instead of N
individuals; the estimate has the same distribution.  All iterations of a
study draw from one random substream keyed by the seed.
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

_CODES = np.array([1.0, 2.0, 3.0])
_CURVATURE = np.array([1.0, -2.0, 1.0])


class DegenerateSampleError(RuntimeError):
    """Raised when a drawn sample has zero variance everywhere."""


@dataclass(frozen=True)
class SimConfig:
    """Iteration count and seed for the simulation estimator."""

    iterations: int = DEFAULT_ITERATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.iterations < 2:
            raise ValueError(f"iterations must be >= 2 for a Monte Carlo SE, got {self.iterations}")


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
    """N, slope weights and curvature scale of the additive fit for fixed group sizes."""

    def __init__(self, n: Sequence[int]):
        n = np.asarray(n, dtype=float)
        self.n_total = float(n.sum())
        centered = _CODES - float((n * _CODES).sum()) / self.n_total
        self.slope_weights = n * centered / float((n * centered**2).sum())
        self.curvature_scale = 1.0 / float((_CURVATURE**2 / n).sum())

    def fit(self, means: Sequence[float], sse: float) -> tuple[float, float]:
        """Slope and residual sd, sqrt(RSS / (N - 2)), of one dataset's group means and SSE.

        RSS is ``sse`` plus the lack of fit: two nonnegative parts that do not cancel.
        """
        beta = sum(w * m for w, m in zip(self.slope_weights, means))
        curvature = sum(h * m for h, m in zip(_CURVATURE, means))
        rss = sse + self.curvature_scale * curvature * curvature
        return float(beta), math.sqrt(rss / (self.n_total - 2.0))


def additive_regression(groups: Sequence[np.ndarray]) -> SimDraw:
    """Fit the additive model to one individual-level dataset.

    ``groups`` holds the three per-group phenotype vectors.  Returns the
    least-squares slope on group codes (1, 2, 3), the residual standard
    deviation, and their ratio d.
    """
    if len(groups) != 3:
        raise ValueError(f"expected 3 groups, got {len(groups)}")
    means = [float(np.mean(g)) for g in groups]
    sse = sum(float(((g - m) ** 2).sum()) for g, m in zip(groups, means))
    beta, sd = _Design([len(g) for g in groups]).fit(means, sse)
    if sd == 0.0:
        raise DegenerateSampleError("sample has zero variance in every group and no slope")
    return SimDraw(beta=beta, sd=sd, d=beta / sd)


def _draws(summary: StudySummary, config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-iteration slope, residual sd and d of the regenerated datasets.

    (slope, curvature) is its mean plus its covariance's Cholesky factor
    times one (2, iterations) normal block; then one gamma SSE run per group.
    """
    n = np.asarray(summary.n, dtype=float)
    design = _Design(n)
    w, h, m = design.slope_weights, _CURVATURE, np.asarray(summary.m)
    var = np.asarray(summary.sd, dtype=float) ** 2
    mean_var = var / n  # the variance of each drawn group mean
    beta_sd = math.sqrt(float((w * w * mean_var).sum()))
    cross = float((w * h * mean_var).sum()) / beta_sd
    rest = math.sqrt(max(float((h * h * mean_var).sum()) - cross * cross, 0.0))
    rng = substream(config.seed, SIM_DRAWS)
    z, curvature = rng.standard_normal((2, config.iterations))
    rss = sum(rng.gamma((n[k] - 1.0) / 2.0, 2.0 * var[k], config.iterations) for k in range(3))
    curvature *= rest
    curvature += cross * z
    curvature += float((h * m).sum())
    betas = beta_sd * z
    betas += float((w * m).sum())
    curvature *= curvature
    rss += design.curvature_scale * curvature
    rss /= design.n_total - 2.0
    sds = np.sqrt(rss, out=rss)
    if np.any(sds == 0.0):
        raise DegenerateSampleError("zero-variance draw in simulation")
    return betas, sds, betas / sds


def simulate_study(summary: StudySummary, config: SimConfig = SimConfig()) -> SimStats:
    """Run the iterations and return their averages.

    Deterministic for a given (summary, seed, iterations).
    """
    betas, sds, ds = _draws(summary, config)
    n_iter = config.iterations
    return SimStats(
        beta_mean=float(betas.mean()),
        sd_beta_mean=float(sds.mean()),
        d_mean=float(ds.mean()),
        d_se=float(ds.std(ddof=1)) / math.sqrt(n_iter),
        iterations=n_iter,
    )


def sim_effect(summary: StudySummary, config: SimConfig = SimConfig()) -> AdditiveEffect:
    """Simulation-based additive effect for one study.

    ``beta`` and ``sd_beta`` of the result are iteration means of the
    per-draw slope and residual sd; ``d`` is the iteration mean of the
    per-draw ratio (so ``d`` differs from ``beta/sd_beta`` by
    O(1/iterations)), and ``d_se`` is its Monte Carlo SE.  The pairwise g
    machinery is applied to the averaged d exactly as in the crude estimator.
    """
    stats = simulate_study(summary, config)
    return effect_from_d(summary.study_id, stats.beta_mean, stats.sd_beta_mean, stats.d_mean,
                         summary.n, "simulation", stats.d_se)
