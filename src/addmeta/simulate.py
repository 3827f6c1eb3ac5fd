"""Simulation-based additive effect estimator.

Instead of standardizing the reported summary statistics directly, this
estimator regenerates plausible individual-level data: each iteration draws
every genotype group from a normal distribution with the reported mean and
standard deviation, fits the additive regression on group codes (1, 2, 3),
and divides the slope by the fit's residual standard deviation.  Cohen's d
is averaged over the iterations, and the averaged d then goes through the
same pairwise d-to-g machinery as the crude estimator.

The fit depends on a drawn dataset only through its three group means and
its within-group sum of squares (SSE), and under normal regeneration these
are independent: group k's mean is m_k + (sd_k / sqrt(n_k)) z_k with z_k
standard normal, and its SSE is sd_k^2 * chi-square(n_k - 1).  Each
iteration therefore draws these six numbers instead of N individuals; the
estimate has the same distribution.  The fit is two fixed contrasts of the
means.  The slope is sum_k w_k m_k with w_k = n_k (c_k - cbar) / S_xx; the
grand mean drops out because sum_k n_k (c_k - cbar) = 0.  The means' lack
of fit to the line is (m_1 - 2 m_2 + m_3)^2 / (1/n_1 + 4/n_2 + 1/n_3), and
RSS is the SSE plus that.  Each group's location and scale fold into the
contrast weights, so no matrix of drawn means is built.  All iterations of
a study draw from one random substream keyed by the seed.
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
    """N, slope weights and curvature scale of the additive fit for fixed group sizes."""

    def __init__(self, n: Sequence[int]):
        n = np.asarray(n, dtype=float)
        self.n_total = float(n.sum())
        centered = _CODES - float((n * _CODES).sum()) / self.n_total
        self.slope_weights = n * centered / float((n * centered**2).sum())
        self.curvature_scale = 1.0 / float((_CURVATURE**2 / n).sum())

    def fit(self, z: np.ndarray, sse: np.ndarray, loc=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0)):
        """Slope and residual sd, sqrt(RSS / (N - 2)), of group means ``loc + scale * z[i]``.

        RSS is the within-group ``sse`` plus the lack of fit: two
        nonnegative parts, so it does not cancel when both are tiny.  Each
        contrast is three column terms, not a matrix product over the rows.
        """
        betas = np.full(len(sse), sum(w * m for w, m in zip(self.slope_weights, loc)))
        curvature = np.full(len(sse), sum(h * m for h, m in zip(_CURVATURE, loc)))
        for k in range(3):
            betas += (self.slope_weights[k] * scale[k]) * z[:, k]
            curvature += (_CURVATURE[k] * scale[k]) * z[:, k]
        rss = sse + self.curvature_scale * curvature * curvature
        return betas, np.sqrt(rss / (self.n_total - 2.0))


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
    betas, sds = _Design([len(g) for g in groups]).fit(np.array([means]), np.array([sse]))
    beta, sd = float(betas[0]), float(sds[0])
    if sd == 0.0:
        raise DegenerateSampleError("sample has zero variance in every group and no slope")
    return SimDraw(beta=beta, sd=sd, d=beta / sd)


def _draws(summary: StudySummary, config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-iteration slope, residual sd and d of the regenerated datasets.

    ``z`` is the stream that ``rng.normal(m, sd / sqrt(n), shape)`` consumes.
    """
    n = np.asarray(summary.n, dtype=float)
    design = _Design(n)
    rng = substream(config.seed, SIM_DRAWS)
    shape = (config.iterations, 3)
    sd = np.asarray(summary.sd, dtype=float)
    z = rng.standard_normal(shape)
    chi2 = rng.chisquare(n - 1.0, shape)
    sse = sd[0] ** 2 * chi2[:, 0] + sd[1] ** 2 * chi2[:, 1] + sd[2] ** 2 * chi2[:, 2]
    betas, sds = design.fit(z, sse, summary.m, sd / np.sqrt(n))
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
    O(1/iterations)).  The pairwise g machinery is applied to the averaged
    d exactly as in the crude estimator.
    """
    stats = simulate_study(summary, config)
    return effect_from_d(
        summary.study_id, stats.beta_mean, stats.sd_beta_mean, stats.d_mean, summary.n, "simulation"
    )
