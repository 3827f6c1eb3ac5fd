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
individuals; the estimate has the same distribution.  A study's iterations
draw from one generator keyed by the seed and its id.  The contrast weights
depend only on the group sizes, so each n-triplet builds them once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._rng import EFFECT_STUDY, SIM_DRAWS, derive_seed, substream
from .effects import AdditiveEffect, SimConfig, StudySummary, effect_from_d


@lru_cache(maxsize=16)  # one entry per n-triplet (the bias-study grid has eight)
def _design(n: tuple[int, int, int]) -> tuple[float, tuple[float, float, float], float]:
    """N, slope weights and curvature scale of the additive fit for fixed group sizes."""
    n1, n2, n3 = map(float, n)
    n_total = n1 + n2 + n3
    code_mean = (n1 + n2 * 2.0 + n3 * 3.0) / n_total
    c1, c2, c3 = 1.0 - code_mean, 2.0 - code_mean, 3.0 - code_mean
    s_xx = n1 * (c1 * c1) + n2 * (c2 * c2) + n3 * (c3 * c3)
    weights = (n1 * c1 / s_xx, n2 * c2 / s_xx, n3 * c3 / s_xx)
    return n_total, weights, 1.0 / (1.0 / n1 + 4.0 / n2 + 1.0 / n3)


def additive_fit_rows(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the additive model to L individual-level datasets at once.

    ``blocks`` holds three (L, n_k) arrays: row i of block k is group k of
    dataset i.  Returns the L least-squares slopes on group codes (1, 2, 3),
    residual standard deviations sqrt(RSS / (N - 2)) and their ratios d.
    RSS is each row's within-group SSE plus the lack of fit: two
    nonnegative parts that do not cancel.  Raises ValueError if a dataset
    has zero variance in every group and no lack of fit; the message names
    the first such dataset i as ``study<i + 1>``.
    """
    n_total, weights, scale = _design(tuple(block.shape[1] for block in blocks))
    means = [block.sum(axis=1) / block.shape[1] for block in blocks]
    sse = sum(((block - m[:, None]) ** 2).sum(axis=1) for block, m in zip(blocks, means))
    beta = sum(w * m for w, m in zip(weights, means))
    curvature = sum(h * m for h, m in zip((1.0, -2.0, 1.0), means))
    sd = np.sqrt((sse + scale * curvature * curvature) / (n_total - 2.0))
    if (sd == 0.0).any():
        first = int((sd == 0.0).argmax()) + 1
        raise ValueError(f"study{first}: sample has zero variance in every group and no lack of fit")
    return beta, sd, beta / sd


def additive_regression(groups: Sequence[np.ndarray]) -> tuple[float, float, float]:
    """Fit the additive model to one individual-level dataset.

    ``groups`` holds the three groups' phenotype vectors; returns the slope,
    residual sd and d of ``additive_fit_rows`` on a stack of one, as floats.
    """
    beta, sd, d = additive_fit_rows([np.asarray(g, dtype=float)[None, :] for g in groups])
    return float(beta[0]), float(sd[0]), float(d[0])


def draw_fits(m: Sequence[float], sd: Sequence[float], n: tuple[int, int, int], iterations: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-iteration slope, residual sd and d of one study's regenerated datasets.

    ``m``, ``sd`` and ``n`` are the study's three group means, SDs and sizes,
    valid as ``StudySummary`` checks them; the draws come from ``rng``.
    (slope, curvature) is its mean plus its covariance's Cholesky factor
    times one (2, iterations) normal block; then one gamma SSE run per
    group.  Run it under ``np.errstate(over="raise", invalid="raise",
    divide="raise")`` to catch draws that leave the floating-point range or
    have a zero SD.
    """
    n_total, (w1, w2, w3), scale = _design(n)
    # the moments in plain floats, in the order numpy's 3-element products and sums take
    var = [s * s for s in sd]
    v1, v2, v3 = (v / k for v, k in zip(var, n))  # the variance of each drawn group mean
    beta_sd = math.sqrt(w1 * w1 * v1 + w2 * w2 * v2 + w3 * w3 * v3)
    cross = (w1 * v1 + w2 * -2.0 * v2 + w3 * v3) / beta_sd
    rest = math.sqrt(max(v1 + 4.0 * v2 + v3 - cross * cross, 0.0))
    beta_mean, curvature_mean = w1 * m[0] + w2 * m[1] + w3 * m[2], m[0] + -2.0 * m[1] + m[2]
    # plain floats overflow silently where numpy's would raise under np.errstate
    if not all(map(math.isfinite, (beta_sd, cross, rest, beta_mean, curvature_mean))):
        raise FloatingPointError("overflow encountered in the moments of the group means")
    z, curvature = rng.standard_normal((2, iterations))
    rss = sum(rng.gamma((k - 1.0) / 2.0, 2.0 * v, iterations) for k, v in zip(n, var))
    curvature *= rest
    curvature += cross * z
    curvature += curvature_mean
    betas = beta_sd * z
    betas += beta_mean
    curvature *= curvature
    rss += scale * curvature
    rss /= n_total - 2.0
    sds = np.sqrt(rss, out=rss)
    return betas, sds, betas / sds


def range_error(study_id: str, exc: Exception) -> ValueError:
    """The error for a study whose simulated fits overflow or divide by zero."""
    return ValueError(f"{study_id}: the simulated fits leave the floating-point range ({exc})")


def sim_effect(summary: StudySummary, config: SimConfig = SimConfig()) -> AdditiveEffect:
    """Simulation-based additive effect for one study.

    ``beta`` and ``sd_beta`` of the result are iteration means of the
    per-draw slope and residual sd; ``d`` is the iteration mean of the
    per-draw ratio (so ``d`` differs from ``beta/sd_beta`` by
    O(1/iterations)), and ``d_se`` is its Monte Carlo SE.  The pairwise g
    machinery is applied to the averaged d exactly as in the crude estimator.
    The random stream depends only on the seed and ``study_id``, not on the
    other studies run at ``config``.  Raises ``ValueError`` if a draw or an
    average leaves the floating-point range.
    """
    n_iter = config.iterations
    # a one-to-one integer key of the id's UTF-8 bytes (the leading 1 keeps leading zero bytes)
    key = int.from_bytes(b"\x01" + summary.study_id.encode("utf-8"), "big")
    try:
        # an overflow, a 0/0 or a zero slope SD raises here instead of writing inf or nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            betas, sds, ds = draw_fits(summary.m, summary.sd, summary.n, n_iter,
                                       substream(derive_seed(config.seed, EFFECT_STUDY, key), SIM_DRAWS))
            # ndarray.sum and a division give numpy's mean() and std(ddof=1) bit for bit, less wrappers
            d = float(ds.sum()) / n_iter
            ds -= d
            ds *= ds
            d_se = math.sqrt(float(ds.sum()) / (n_iter - 1)) / math.sqrt(n_iter)
            return effect_from_d(summary.study_id, float(betas.sum()) / n_iter, float(sds.sum()) / n_iter,
                                 d, summary.n, "simulation", d_se)
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise range_error(summary.study_id, exc) from None
