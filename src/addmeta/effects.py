"""Additive effect sizes from reported summary statistics.

A genetic association study under the additive model reports, for the three
genotype groups (0, 1 and 2 copies of the risk allele), a mean, a standard
deviation and a sample size of some continuous phenotype.  This module holds
the summary-statistics container, the "crude" estimator that turns those nine
numbers into a standardized additive effect (Hedges' g with variance), the
d-to-g step (``pairwise_g``, behind ``effect_from_d``) shared with the
simulation estimator and the bias study's truth fit, and ``SimConfig``, the
simulation estimator's settings, so that they are checked without numpy.

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
import sys
from dataclasses import dataclass
from typing import Literal, Sequence

from ._defaults import DEFAULT_ITERATIONS, DEFAULT_SEED, require_integer

Standardizer = Literal["pair-mean", "pooled"]

# s * s is a normal float exactly when SD_MIN <= s < SD_MAX: 2**-511 squares to
# sys.float_info.min, and 2**512 is the least double whose square overflows
SD_MIN, SD_MAX = 2.0**-511, 2.0**512


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
        try:
            str.encode(self.study_id, "utf-8")  # the id's bytes key the study's simulation stream
        except (TypeError, UnicodeEncodeError):
            got = repr(self.study_id) if isinstance(self.study_id, str) else f"type {type(self.study_id).__name__}"
            raise ValueError(f"study_id must be a str that UTF-8 can encode, got {got}") from None
        for name, vec in (("m", self.m), ("sd", self.sd), ("n", self.n)):
            if len(vec) != 3:
                raise ValueError(f"{self.study_id}: {name} must have exactly 3 entries, got {len(vec)}")
        object.__setattr__(self, "m", tuple(float(x) for x in self.m))
        object.__setattr__(self, "sd", tuple(float(x) for x in self.sd))
        if not all(math.isfinite(x) for x in self.m + self.sd):
            raise ValueError(f"{self.study_id}: means and SDs must be finite, got {self.m}, {self.sd}")
        if not all(SD_MIN <= s < SD_MAX for s in self.sd):
            raise ValueError(f"{self.study_id}: all standard deviations must be > 0, between about "
                             f"1.5e-154 and 1.3e154 so that their squares are normal floats, got {self.sd}")
        for i, k in enumerate(self.n, 1):
            require_integer(f"{self.study_id}: n{i}", k, 2)
        n = tuple(int(x) for x in self.n)
        # float() of an int past the float range raises; every count that the estimators turn
        # into a float, up to hedges_j's 4 * (n_a + n_b - 2) - 1, is below 4 * n_total
        if 4 * sum(n) > sys.float_info.max:
            raise ValueError(f"{self.study_id}: sample sizes must sum to below about 4.5e307")
        if any(k != float(k) for k in n):
            raise ValueError(f"{self.study_id}: sample sizes must be integers that a float holds exactly, "
                             f"got {self.n}")
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


@dataclass(frozen=True)
class SimConfig:
    """Iteration count and seed for the simulation estimator."""

    iterations: int = DEFAULT_ITERATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        require_integer("iterations", self.iterations, 2)  # 2, so that there is a Monte Carlo SE
        require_integer("seed", self.seed, 0)


def crude_beta(m, sd, n: Sequence[int], standardizer: Standardizer = "pair-mean") -> tuple[float, float]:
    """One study's crude additive slope and its standardizer, ``(beta, sd_beta)``, from its three groups.

    The slope, ``(m3 - m1) / 2``, is the least-squares fit of the group means
    on the codes (1, 2, 3).  The standardizer is the mean of the two pairwise
    pooled SDs (``pair-mean``) or the three-group pooled SD (``pooled``).
    A sum that overflows leaves an inf, which ``effect_from_d`` refuses.
    """
    # s**2 is libm's pow(s, 2), which rounds differently from s * s for about 0.08% of doubles
    v1, v2, v3 = (s**2 for s in sd)
    n1, n2, n3 = n
    beta = (m[2] - m[0]) / 2.0
    if standardizer == "pair-mean":
        sd12 = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
        sd23 = math.sqrt(((n2 - 1) * v2 + (n3 - 1) * v3) / (n2 + n3 - 2))
        return beta, (sd12 + sd23) / 2.0
    if standardizer == "pooled":
        return beta, math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2 + (n3 - 1) * v3) / (n1 + n2 + n3 - 3))
    raise ValueError(f"unknown standardizer {standardizer!r}")


def cohens_d_variance(n_a: int, n_b: int, d: float) -> float:
    """Approximate variance of Cohen's d for a two-group comparison."""
    return (n_a + n_b) / (n_a * n_b) + d * d / (2.0 * (n_a + n_b))


def hedges_j(n_a: int, n_b: int) -> float:
    """Small-sample correction factor converting d to Hedges' g.

    ``J = 1 - 3 / (4*(n_a + n_b - 2) - 1)``; for group sizes >= 2, as
    ``StudySummary`` admits them, it lies in (0, 1) and increases toward 1.
    """
    return 1.0 - 3.0 / (4 * (n_a + n_b - 2) - 1)


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
    # d * d is a term of d's variance; an inf or nan would reach g and v_g
    if not (math.isfinite(beta) and math.isfinite(sd_beta) and math.isfinite(d * d)):
        raise ValueError(f"{study_id}: the additive effect leaves the floating-point range: "
                         f"beta {beta!r}, sd_beta {sd_beta!r}, d {d!r}")
    g, v_g = pairwise_g(d, n)
    return AdditiveEffect(study_id, beta, sd_beta, d, g, v_g, method, d_se)


def crude_effect(summary: StudySummary, standardizer: Standardizer = "pair-mean") -> AdditiveEffect:
    """Crude additive effect: slope, standardizer, and combined Hedges' g."""
    beta, sd_beta = crude_beta(summary.m, summary.sd, summary.n, standardizer)
    return effect_from_d(summary.study_id, beta, sd_beta, beta / sd_beta, summary.n, "crude")
