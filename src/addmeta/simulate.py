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
study draw from one random substream keyed by the seed.  The contrast
weights depend only on the group sizes, so each n-triplet builds them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


# one _Design per n-triplet, keyed by the tuple (the bias-study grid has eight)
_design = lru_cache(maxsize=16)(_Design)


def additive_fit_rows(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the additive model to L individual-level datasets at once.

    ``blocks`` holds three (L, n_k) arrays: row i of block k is group k of
    dataset i.  Returns the L least-squares slopes on group codes (1, 2, 3),
    residual standard deviations sqrt(RSS / (N - 2)) and their ratios d.
    RSS is each row's within-group SSE plus the lack of fit: two
    nonnegative parts that do not cancel.  Raises DegenerateSampleError if
    any dataset has zero variance in every group and no lack of fit.
    """
    if len(blocks) != 3:
        raise ValueError(f"expected 3 groups, got {len(blocks)}")
    design = _design(tuple(block.shape[1] for block in blocks))
    means = [block.sum(axis=1) / block.shape[1] for block in blocks]
    sse = sum(((block - m[:, None]) ** 2).sum(axis=1) for block, m in zip(blocks, means))
    beta = sum(w * m for w, m in zip(design.slope_weights, means))
    curvature = sum(h * m for h, m in zip(_CURVATURE, means))
    sd = np.sqrt((sse + design.curvature_scale * curvature * curvature) / (design.n_total - 2.0))
    if (sd == 0.0).any():
        raise DegenerateSampleError("sample has zero variance in every group and no slope")
    return beta, sd, beta / sd


def additive_regression(groups: Sequence[np.ndarray]) -> SimDraw:
    """Fit the additive model to one individual-level dataset.

    ``groups`` holds the three per-group phenotype vectors; this is
    ``additive_fit_rows`` on a stack of one.
    """
    beta, sd, d = additive_fit_rows([np.asarray(g, dtype=float)[None, :] for g in groups])
    return SimDraw(beta=float(beta[0]), sd=float(sd[0]), d=float(d[0]))


def _draws(summary: StudySummary, config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-iteration slope, residual sd and d of the regenerated datasets.

    (slope, curvature) is its mean plus its covariance's Cholesky factor
    times one (2, iterations) normal block; then one gamma SSE run per group.
    """
    n = np.asarray(summary.n, dtype=float)
    design = _design(summary.n)
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
    if (sds == 0.0).any():
        raise DegenerateSampleError("zero-variance draw in simulation")
    return betas, sds, betas / sds


def simulate_study(summary: StudySummary, config: SimConfig = SimConfig()) -> SimStats:
    """Run the iterations and return their averages.

    Deterministic for a given (summary, seed, iterations).
    """
    betas, sds, ds = _draws(summary, config)
    n_iter = config.iterations
    # ndarray.sum and a division give numpy's mean() and std(ddof=1) bit for bit, minus their wrappers
    d_mean = float(ds.sum()) / n_iter
    ds -= d_mean
    ds *= ds
    return SimStats(
        beta_mean=float(betas.sum()) / n_iter,
        sd_beta_mean=float(sds.sum()) / n_iter,
        d_mean=d_mean,
        d_se=math.sqrt(float(ds.sum()) / (n_iter - 1)) / math.sqrt(n_iter),
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
