"""Additive effect sizes from reported summary statistics.

A genetic association study under the additive model reports, for the three
genotype groups (0, 1 and 2 copies of the risk allele), a mean, a standard
deviation and a sample size of some continuous phenotype.  This module holds
the summary-statistics container and the "crude" estimator that turns those
nine numbers into a standardized additive effect (Hedges' g with variance),
plus the d-to-g step (``pairwise_g``, behind ``effect_from_d``) shared with the
simulation estimator and the bias study's truth fit.

Two standardizers are available for the crude slope, reflecting the two
conventions found in published applications of this estimator:

``pair-mean``
    the mean of the two pairwise pooled standard deviations (groups 1&2 and
    groups 2&3),
``pooled``
    the single standard deviation pooled across all three groups.

Both are exact to construct; they differ materially when the three group
standard deviations are heterogeneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

Standardizer = Literal["pair-mean", "pooled"]


@dataclass(frozen=True)
class StudySummary:
    """Reported per-study summary statistics for the three genotype groups.

    Vectors are ordered by risk-allele count: index 0 = no copies (AA),
    1 = one copy (AB), 2 = two copies (BB).
    """

    study_id: str
    m: tuple[float, float, float]
    sd: tuple[float, float, float]
    n: tuple[int, int, int]

    def __post_init__(self):
        for name, vec in (("m", self.m), ("sd", self.sd), ("n", self.n)):
            if len(vec) != 3:
                raise ValueError(f"{self.study_id}: {name} must have exactly 3 entries, got {len(vec)}")
        object.__setattr__(self, "m", tuple(float(x) for x in self.m))
        object.__setattr__(self, "sd", tuple(float(x) for x in self.sd))
        if not all(math.isfinite(x) for x in self.m + self.sd):
            raise ValueError(f"{self.study_id}: means and SDs must be finite, got {self.m}, {self.sd}")
        if any(s <= 0 for s in self.sd):
            raise ValueError(f"{self.study_id}: all standard deviations must be > 0, got {self.sd}")
        n = tuple(int(x) for x in self.n)
        if any(k != float(orig) for k, orig in zip(n, self.n)):
            raise ValueError(f"{self.study_id}: sample sizes must be integers, got {self.n}")
        if any(k < 2 for k in n):
            raise ValueError(f"{self.study_id}: all sample sizes must be >= 2, got {n}")
        object.__setattr__(self, "n", n)

    @property
    def n_total(self) -> int:
        return sum(self.n)


@dataclass(frozen=True)
class AdditiveEffect:
    """Per-study additive-model effect estimate.

    ``beta`` is the slope (phenotype units per risk-allele copy), ``sd_beta``
    the standardizer, and ``g``/``v_g`` the inverse-variance mean of the
    AA-AB and AB-BB pairs' Hedges' g and its variance (see
    ``effect_from_d``).  For the crude method ``d == beta / sd_beta``
    exactly; for the simulation method the three fields are separate
    iteration averages and agree only to O(1/iterations), and ``d_se`` is
    the Monte Carlo standard error of ``d`` (``None`` for the crude method).
    """

    study_id: str
    beta: float
    sd_beta: float
    d: float
    g: float
    v_g: float
    method: Literal["crude", "simulation"]
    d_se: float | None = None


def pooled_sd(sd_a: float, n_a: int, sd_b: float, n_b: int) -> float:
    """Pooled standard deviation of two groups.

    Returns ``sqrt(((n_a-1)*sd_a^2 + (n_b-1)*sd_b^2) / (n_a+n_b-2))``.
    Symmetric in its two (sd, n) argument pairs.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError(f"group sizes must be >= 1, got ({n_a}, {n_b})")
    if sd_a <= 0 or sd_b <= 0:
        raise ValueError(f"standard deviations must be > 0, got ({sd_a}, {sd_b})")
    if n_a + n_b <= 2:
        raise ValueError(f"need n_a + n_b > 2 to pool, got {n_a} + {n_b}")
    return math.sqrt(((n_a - 1) * sd_a**2 + (n_b - 1) * sd_b**2) / (n_a + n_b - 2))


def crude_beta(summary: StudySummary, standardizer: Standardizer = "pair-mean") -> tuple[float, float]:
    """Crude additive slope and its standardizer from summary statistics.

    The slope is the least-squares fit of the three group means against the
    group codes (1, 2, 3), which collapses to ``(m3 - m1) / 2`` and equals
    the average of the two pairwise mean differences.  The standardizer is
    either the mean of the two pairwise pooled SDs (``pair-mean``) or the
    three-group pooled SD (``pooled``); see the module docstring.
    """
    m1, m2, m3 = summary.m
    beta = (m3 - m1) / 2.0
    if standardizer == "pair-mean":
        sd12 = pooled_sd(summary.sd[0], summary.n[0], summary.sd[1], summary.n[1])
        sd23 = pooled_sd(summary.sd[1], summary.n[1], summary.sd[2], summary.n[2])
        sd_beta = (sd12 + sd23) / 2.0
    elif standardizer == "pooled":
        num = sum((n - 1) * s**2 for n, s in zip(summary.n, summary.sd))
        sd_beta = math.sqrt(num / (summary.n_total - 3))
    else:
        raise ValueError(f"unknown standardizer {standardizer!r}")
    return beta, sd_beta


def cohens_d_variance(n_a: int, n_b: int, d: float) -> float:
    """Approximate variance of Cohen's d for a two-group comparison."""
    if n_a < 1 or n_b < 1:
        raise ValueError(f"group sizes must be >= 1, got ({n_a}, {n_b})")
    return (n_a + n_b) / (n_a * n_b) + d * d / (2.0 * (n_a + n_b))


def hedges_j(n_a: int, n_b: int) -> float:
    """Small-sample correction factor converting d to Hedges' g.

    ``J = 1 - 3 / (4*(n_a + n_b - 2) - 1)``; lies in (0, 1) and increases
    toward 1 as the total sample size grows.
    """
    denom = 4 * (n_a + n_b - 2) - 1
    if n_a + n_b <= 2 or denom <= 0:
        raise ValueError(f"need n_a + n_b > 2, got {n_a} + {n_b}")
    return 1.0 - 3.0 / denom


def pairwise_g(d, n: Sequence[int]):
    """Hedges' g and its variance from one additive d and the group sizes.

    Both adjacent-group pairs (AA-AB and AB-BB) reuse the one additive d;
    only the small-sample correction ``J`` and the variance of d are
    pair-specific.  Each pair gives Hedges' ``J*d`` with variance
    ``J**2 * v_d``, and ``(g, v_g)`` are their inverse-variance mean and its
    variance.  ``d`` may be a float or an array of d's sharing ``n``.
    """
    n1, n2, n3 = n
    weighted = []
    for n_lo, n_hi in ((n1, n2), (n2, n3)):
        j = hedges_j(n_lo, n_hi)
        w = 1.0 / (j * j * cohens_d_variance(n_lo, n_hi, d))
        weighted.append((j * d * w, w))
    (gw12, w12), (gw23, w23) = weighted
    return (gw12 + gw23) / (w12 + w23), 1.0 / (w12 + w23)


def effect_from_d(
    study_id: str,
    beta: float,
    sd_beta: float,
    d: float,
    n: Sequence[int],
    method: Literal["crude", "simulation"],
    d_se: float | None = None,
) -> AdditiveEffect:
    """Assemble an AdditiveEffect from a combined d and the group sizes (see ``pairwise_g``)."""
    g, v_g = pairwise_g(d, n)
    return AdditiveEffect(study_id, beta, sd_beta, d, g, v_g, method, d_se)


def crude_effect(summary: StudySummary, standardizer: Standardizer = "pair-mean") -> AdditiveEffect:
    """Crude additive effect: slope, standardizer, and combined Hedges' g."""
    beta, sd_beta = crude_beta(summary, standardizer)
    return effect_from_d(summary.study_id, beta, sd_beta, beta / sd_beta, summary.n, "crude")
