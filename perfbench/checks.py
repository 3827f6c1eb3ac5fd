"""Output checks that do not depend on the program's random stream.

Each check recomputes what an output must be from closed forms, published
values or stored reference expectations, so a change of sampler that keeps
the estimator's distribution passes and a wrong estimator fails.  A check
returns a list of messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
import statistics

Z_95 = 1.96

# Published crude values (beta, sd_beta, d) with their tolerances, and the
# published simulation d (Table 2).
CRUDE_PUBLISHED = {
    "SATIETY": (1.625, 8.675, 0.187),
    "EUFEST": (0.313, 5.470, 0.057),
    "ZHH-FE": (0.199, 1.965, 0.101),
}
CRUDE_TOLERANCES = (0.03, 0.07, 0.015)
SIM_PUBLISHED_D = {"SATIETY": 0.180, "EUFEST": 0.136, "ZHH-FE": 0.085}
SIM_PUBLISHED_TOL = 0.02

# Output CSVs carry 6 significant digits.
CSV_REL = 2e-5
# Ambiguous OR pairings are rare (18 of 2,400 generated pairs); a larger
# share of outputs that disagree with their source tables is an error.
MAX_MISMATCH_SHARE = 0.1
# Monte Carlo SEs a bias may lie from its reference.
BIAS_SE_LIMIT = 5.0
# Simulated d: SEs from the closed-form approximation, plus a relative term
# for the approximation's own error.
SIM_D_SE_LIMIT = 5.0
SIM_D_REL = 0.01


def _close(got: float, want: float, rel: float = CSV_REL) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-9)


def pair_g(d: float, n) -> tuple[float, float]:
    """Combined Hedges' g and its variance for one additive d."""
    g_w = w = 0.0
    for n_a, n_b in ((n[0], n[1]), (n[1], n[2])):
        j = 1.0 - 3.0 / (4 * (n_a + n_b - 2) - 1)
        v_g = j * j * ((n_a + n_b) / (n_a * n_b) + d * d / (2.0 * (n_a + n_b)))
        g_w += j * d / v_g
        w += 1.0 / v_g
    return g_w / w, 1.0 / w


def crude_expected(m, sd, n) -> tuple[float, float, float]:
    """Crude slope, three-group pooled SD and d (the CLI's default standardizer)."""
    beta = (m[2] - m[0]) / 2.0
    sd_beta = math.sqrt(sum((nk - 1) * s * s for nk, s in zip(n, sd)) / (sum(n) - 3))
    return beta, sd_beta, beta / sd_beta


def sim_d_expected(m, sd, n, iterations: int) -> tuple[float, float]:
    """Approximate mean of the simulated d and its Monte Carlo SE.

    The n-weighted slope over the expected residual SD, times the
    noncentral-t bias factor sqrt(nu/2) Gamma((nu-1)/2) / Gamma(nu/2).
    """
    x = (1.0, 2.0, 3.0)
    total = sum(n)
    x_bar = sum(nk * xk for nk, xk in zip(n, x)) / total
    s_xx = sum(nk * (xk - x_bar) ** 2 for nk, xk in zip(n, x))
    m_bar = sum(nk * mk for nk, mk in zip(n, m)) / total
    beta = sum(nk * (xk - x_bar) * (mk - m_bar) for nk, xk, mk in zip(n, x, m)) / s_xx
    fitted = [m_bar + beta * (xk - x_bar) for xk in x]
    nu = total - 2
    rss = (sum((nk - 1) * s * s for nk, s in zip(n, sd))
           + sum(nk * (mk - fk) ** 2 for nk, mk, fk in zip(n, m, fitted))
           + sum(s * s for s in sd) / 3.0)  # one lack-of-fit degree of freedom
    sigma = math.sqrt(rss / nu)
    factor = math.exp(0.5 * math.log(nu / 2.0) + math.lgamma((nu - 1) / 2.0) - math.lgamma(nu / 2.0))
    d = beta / sigma * factor
    var_beta = sum(nk * (xk - x_bar) ** 2 * s * s for nk, xk, s in zip(n, x, sd)) / s_xx**2
    var_d = var_beta / sigma**2 + d * d / (2.0 * nu)
    return d, math.sqrt(var_d / iterations)


def check_effect_row(row: dict, study, method: str, iterations: int) -> list[str]:
    """One row of an `effect` output against its study's summary."""
    sid, *values = study
    m, sd, n = values[0:3], values[3:6], values[6:9]
    try:
        got = {k: float(row[k]) for k in ("beta", "sd_beta", "d", "g", "v_g")}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{sid}: unreadable row ({exc})"]
    if not all(math.isfinite(v) for v in got.values()) or got["v_g"] <= 0:
        return [f"{sid}: non-finite or nonpositive output {got}"]
    errors = []
    g, v_g = pair_g(got["d"], n)
    if not (_close(got["g"], g, 1e-4) and _close(got["v_g"], v_g, 1e-4)):
        errors.append(f"{sid}: g/v_g {got['g']}/{got['v_g']} do not follow from d (want {g}/{v_g})")
    if method == "crude":
        want = crude_expected(m, sd, n)
        for field, w in zip(("beta", "sd_beta", "d"), want):
            if not _close(got[field], w):
                errors.append(f"{sid}: crude {field} {got[field]} != closed form {w}")
        if sid in CRUDE_PUBLISHED:
            for field, w, tol in zip(("beta", "sd_beta", "d"), CRUDE_PUBLISHED[sid], CRUDE_TOLERANCES):
                if abs(got[field] - w) > tol:
                    errors.append(f"{sid}: crude {field} {got[field]} vs published {w} (tol {tol})")
    else:
        want, se = sim_d_expected(m, sd, n, iterations)
        tol = SIM_D_SE_LIMIT * se + SIM_D_REL * abs(want) + 1e-3
        if abs(got["d"] - want) > tol:
            errors.append(f"{sid}: simulated d {got['d']} vs expected {want:.5f} (tol {tol:.5f})")
        if sid in SIM_PUBLISHED_D and abs(got["d"] - SIM_PUBLISHED_D[sid]) > SIM_PUBLISHED_TOL:
            errors.append(f"{sid}: simulated d {got['d']} vs published {SIM_PUBLISHED_D[sid]}")
    return errors


def dersimonian_laird(effects) -> tuple[float, float, float]:
    """Pooled g, its variance and tau^2 under DerSimonian-Laird."""
    w = [1.0 / v for _, v in effects]
    sum_w = math.fsum(w)
    g_fe = math.fsum(wi * g for wi, (g, _) in zip(w, effects)) / sum_w
    q = math.fsum(wi * (g - g_fe) ** 2 for wi, (g, _) in zip(w, effects))
    c = sum_w - math.fsum(wi * wi for wi in w) / sum_w
    tau2 = max(0.0, (q - (len(effects) - 1)) / c)
    w_star = [1.0 / (v + tau2) for _, v in effects]
    sum_ws = math.fsum(w_star)
    return math.fsum(wi * g for wi, (g, _) in zip(w_star, effects)) / sum_ws, 1.0 / sum_ws, tau2


def check_meta_row(row: dict, effects) -> list[str]:
    """A pooled row against DerSimonian-Laird on the effects it pooled."""
    g_wm, v_wm, tau2 = dersimonian_laird(effects)
    half = Z_95 * math.sqrt(v_wm)
    want = {"g_wm": g_wm, "v_wm": v_wm, "tau2": tau2, "ci_lo": g_wm - half, "ci_hi": g_wm + half}
    errors = []
    for field, w in want.items():
        got = float(row[field])
        if not math.isclose(got, w, rel_tol=1e-4, abs_tol=1e-6):
            errors.append(f"pooled {field} {got} != {w}")
    if int(row["k"]) != len(effects):
        errors.append(f"pooled k {row['k']} != {len(effects)}")
    return errors


def logistic_or(table) -> float:
    """Additive-model odds ratio of a 3x2 table by Newton's method (codes 1, 2, 3)."""
    b0 = b1 = 0.0
    for _ in range(100):
        s0 = s1 = i00 = i01 = i11 = 0.0
        for x, (present, absent) in zip((1.0, 2.0, 3.0), table):
            total = present + absent
            p = 1.0 / (1.0 + math.exp(-(b0 + b1 * x)))
            w = total * p * (1.0 - p)
            s0 += present - total * p
            s1 += (present - total * p) * x
            i00, i01, i11 = i00 + w, i01 + w * x, i11 + w * x * x
        det = i00 * i11 - i01 * i01
        step0, step1 = (i11 * s0 - i01 * s1) / det, (i00 * s1 - i01 * s0) / det
        b0, b1 = b0 + step0, b1 + step1
        if max(abs(step0), abs(step1)) < 1e-13:
            break
    return math.exp(b1)


def check_or_row(row: dict, table) -> tuple[list[str], bool]:
    """(errors, matched): matched is False when the merged table differs from the source.

    The records carry the source table's OR and CI at full precision, so the
    source 2x2 tables are among the recovered candidates and the chosen
    pairing's AB rows must agree exactly (distance 0).  Another pairing at
    distance 0 is an ambiguous pairing, not an error.
    """
    try:
        value, lo, hi = float(row["or_combined"]), float(row["ci_lo"]), float(row["ci_hi"])
        distance = float(row["ab_distance"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{row.get('study_id')}: unreadable OR row ({exc})"], False
    if not all(math.isfinite(v) for v in (value, lo, hi)) or not lo < value < hi:
        return [f"{row['study_id']}: OR {value} not finite inside ({lo}, {hi})"], False
    if distance != 0.0:
        return [f"{row['study_id']}: AB rows {distance} apart; source tables not recovered"], False
    return [], _close(value, logistic_or(table), 1e-4)


def check_bias(key: str, runs: dict, reps: int, reference: dict, strong: bool) -> list[str]:
    """Mean biases of one cell against its reference run.

    ``runs[field]`` holds one mean bias per run of the cell, each over
    ``reps`` replicates; ``reference[field]`` is (mean, replicate SD,
    replicates).  Replicate biases have heavy right tails (a study drawn
    with a tiny SD), so the replicate SD is the larger of the reference's
    and the one seen across this cell's runs.  The allowed distance is
    BIAS_SE_LIMIT standard errors of the difference of the two means.

    On a strong-effect cell sim g-WM bias must also be below crude g-WM
    bias, checked only where the reference gap between the two exceeds
    BIAS_SE_LIMIT standard errors of the run's mean difference; with fewer
    replicates a correct estimator could fail the ordering by chance.
    """
    errors, means = [], {}
    total = reps * len(runs["bias_gwm_sim"])
    for field, values in runs.items():
        mean = means[field] = statistics.fmean(values)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            errors.append(f"{key}: {field} = {values}")
            continue
        ref_mean, ref_sd, ref_reps = reference[field]
        run_sd = statistics.stdev(values) * math.sqrt(reps) if len(values) > 1 else 0.0
        se = math.sqrt(max(ref_sd, run_sd) ** 2 / total + ref_sd**2 / ref_reps)
        if abs(mean - ref_mean) > BIAS_SE_LIMIT * se:
            errors.append(f"{key}: {field} {mean:.5f} over {total} replicates vs reference "
                          f"{ref_mean:.5f} (> {BIAS_SE_LIMIT:g} SE = {BIAS_SE_LIMIT * se:.5f})")
    crude, sim = reference["bias_gwm_crude"], reference["bias_gwm_sim"]
    powered = crude[0] - sim[0] > BIAS_SE_LIMIT * math.sqrt((crude[1] ** 2 + sim[1] ** 2) / total)
    if strong and powered and not means["bias_gwm_sim"] < means["bias_gwm_crude"]:
        errors.append(f"{key}: sim g-WM bias {means['bias_gwm_sim']:.5f} not below "
                      f"crude {means['bias_gwm_crude']:.5f} on a strong-effect cell")
    return errors
