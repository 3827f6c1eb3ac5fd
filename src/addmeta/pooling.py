"""Random-effects pooling of per-study effect sizes.

DerSimonian-Laird estimation: the between-study variance tau^2 is the
truncated moment estimator based on Cochran's Q, study weights are
``1 / (v_i + tau^2)``, and the pooled effect ("g-WM", a weighted mean of the
per-study g values) carries a normal-approximation 95% confidence interval.
Q and I^2 = max(0, (Q - (k - 1)) / Q) describe the heterogeneity (Higgins &
Thompson 2002).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

Z_95 = 1.96


@dataclass(frozen=True)
class MetaResult:
    g_wm: float
    v_wm: float
    tau2: float
    ci_lo: float
    ci_hi: float
    k: int
    q: float  # Cochran's Q about the fixed-effect mean
    i2: float  # share of Q beyond its k - 1 degrees of freedom


def pool_random_effects(effects: Sequence[tuple[float, float]]) -> MetaResult:
    """Pool (g, v_g) pairs under the DerSimonian-Laird random-effects model.

    A single study is returned as-is with ``tau2 = q = i2 = 0``.  Raises
    ``ValueError`` on empty input, nonpositive variances, a weight ``1/v_g``
    that overflows (for one study as for many), or no finite estimate.
    """
    if len(effects) == 0:
        raise ValueError("cannot pool an empty set of effects")
    gs = [float(g) for g, _ in effects]
    vs = [float(v) for _, v in effects]
    if any(v <= 0 for v in vs):
        raise ValueError(f"all variances must be > 0, got {vs}")
    k = len(gs)
    w = [1.0 / v for v in vs]
    if k == 1 and w[0] < math.inf:  # an infinite weight is refused below, as for k > 1
        g, v = gs[0], vs[0]
        half = Z_95 * math.sqrt(v)
        return MetaResult(g_wm=g, v_wm=v, tau2=0.0, ci_lo=g - half, ci_hi=g + half, k=1, q=0.0, i2=0.0)

    # fsum raises on an overflowing sum or inf - inf, ** on an overflowing square, / on a zero sum.
    # tau2 is 0 unless Q exceeds its k - 1 degrees of freedom; only then is its denominator c used,
    # and a c that rounding left <= 0 or inf gives a nan tau2 and so a nan g_wm
    try:
        sum_w = math.fsum(w)
        g_fe = math.fsum(wi * gi for wi, gi in zip(w, gs)) / sum_w
        q = math.fsum(wi * (gi - g_fe) ** 2 for wi, gi in zip(w, gs))
        tau2 = 0.0
        if q > k - 1:
            c = sum_w - math.fsum(wi * wi for wi in w) / sum_w
            tau2 = (q - (k - 1)) / c if 0.0 < c < math.inf else math.nan

        w_star = [1.0 / (v + tau2) for v in vs]
        sum_ws = math.fsum(w_star)
        g_wm = math.fsum(wi * gi for wi, gi in zip(w_star, gs)) / sum_ws
    except (ArithmeticError, ValueError):
        g_wm = math.nan
    if not (math.isfinite(g_wm) and math.isfinite(q)):
        raise ValueError(f"no finite pooled estimate of {k} effects, variances {min(vs)!r} to {max(vs)!r}")
    v_wm = 1.0 / sum_ws
    half = Z_95 * math.sqrt(v_wm)
    return MetaResult(
        g_wm=g_wm,
        v_wm=v_wm,
        tau2=tau2,
        ci_lo=g_wm - half,
        ci_hi=g_wm + half,
        k=k,
        q=q,
        i2=max(0.0, (q - (k - 1)) / q) if q > 0 else 0.0,
    )
