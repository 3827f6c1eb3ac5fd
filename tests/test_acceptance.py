"""Acceptance suite: published-value reproduction and property gates.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  Heavy Monte Carlo criteria are seed-pinned and run at desk
scale (100 replicates, 2000 inner iterations).
"""

import csv
import math
import time

import numpy as np
import pytest

from addmeta._rng import substream
from addmeta.bias_study import DENSITIES, Scenario, run_scenario, sample_standardized
from addmeta.cli import main
from addmeta.effects import StudySummary, crude_beta
from addmeta.odds_recovery import (
    ORRecord,
    combined_or,
    recover_tables,
    se_from_ci,
    select_pairing,
)
from addmeta.pooling import pool_random_effects
from addmeta.simulate import additive_regression

from test_odds_recovery import grid_search_logit_slope


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def read_rows(path):
    with open(path, newline="") as handle:
        return {row["study_id"]: row for row in csv.DictReader(handle)}


CRUDE_PUBLISHED = {
    "SATIETY": (1.625, 8.675, 0.187),
    "EUFEST": (0.313, 5.470, 0.057),
    "ZHH-FE": (0.199, 1.965, 0.101),
}
SIM_PUBLISHED_D = {"SATIETY": 0.180, "EUFEST": 0.136, "ZHH-FE": 0.085}
PATIENT_LEVEL_D = {"SATIETY": 0.179, "EUFEST": 0.137, "ZHH-FE": 0.084}


def test_criterion_1_crude_real_data(table2_csv, tmp_path):
    out = tmp_path / "crude.csv"
    start = time.perf_counter()
    code = main(["effect", str(table2_csv), "--method", "crude", "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = read_rows(out)
    errors = []
    for study, (beta, sd_beta, d) in CRUDE_PUBLISHED.items():
        got = rows[study]
        for field, target, tol in (("beta", beta, 0.03), ("sd_beta", sd_beta, 0.07), ("d", d, 0.015)):
            delta = abs(float(got[field]) - target)
            if delta > tol:
                errors.append(f"{study} {field}: |{got[field]} - {target}| = {delta:.4f} > {tol}")
    ok = not errors and elapsed < 1.0
    report("criterion 1 (crude real-data reproduction)",
           ok, errors or f"all nine values within tolerance, {elapsed:.2f}s")


def test_criterion_2_simulation_real_data(table2_csv, tmp_path):
    out = tmp_path / "sim.csv"
    start = time.perf_counter()
    code = main(["effect", str(table2_csv), "--method", "sim", "--iterations", "10000",
                 "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = read_rows(out)
    errors = []
    for study in SIM_PUBLISHED_D:
        d = float(rows[study]["d"])
        for label, target in (("published", SIM_PUBLISHED_D[study]), ("patient-level", PATIENT_LEVEL_D[study])):
            if abs(d - target) > 0.02:
                errors.append(f"{study} d={d:.4f} vs {label} {target} (tol 0.02)")
    ok = not errors and elapsed < 30.0
    report("criterion 2 (simulation real-data reproduction)",
           ok, errors or f"d within 0.02 of both columns for all studies, {elapsed:.1f}s")


def test_criterion_3_or_recovery_golden(tmp_path):
    start = time.perf_counter()
    ab = ORRecord("AB_vs_AA", 3.00, 1.05, 8.60, 30, 30)
    bb = ORRecord("BB_vs_AB", 1.00, 0.36, 2.81, 30, 30)
    ab_cands = recover_tables(ab)
    bb_cands = recover_tables(bb)
    errors = []
    if [c.cells for c in ab_cands] != [(18, 12, 10, 20), (20, 10, 12, 18)]:
        errors.append(f"elevated-OR candidates {[c.cells for c in ab_cands]}")
    if [c.cells for c in bb_cands] != [(12, 18, 12, 18), (18, 12, 18, 12)]:
        errors.append(f"null-OR candidates {[c.cells for c in bb_cands]}")
    distances = [math.dist(a.top_row, b.bottom_row) for a in ab_cands for b in bb_cands]
    for got, want in zip(distances, (8.48, 0.0, 11.31, 2.83)):
        if abs(got - want) > 0.01:
            errors.append(f"distance {got:.4f} vs {want}")
    merged = select_pairing(ab_cands, bb_cands, 30, 30)
    if (merged.bb, merged.ab, merged.aa) != ((18, 12), (18, 12), (10, 20)):
        errors.append(f"merged table {merged}")
    fitted = combined_or(merged)
    if abs(fitted.or_value - 1.7274) > 0.002:
        errors.append(f"combined OR {fitted.or_value:.6f}")
    if abs(fitted.ci_lo - 1.0217) > 0.005 or abs(fitted.ci_hi - 2.9205) > 0.005:
        errors.append(f"combined CI ({fitted.ci_lo:.6f}, {fitted.ci_hi:.6f})")
    elapsed = time.perf_counter() - start
    ok = not errors and elapsed < 1.0
    report("criterion 3 (OR recovery golden test)",
           ok, errors or f"tables, distances, merge and OR all reproduced, {elapsed:.2f}s")


def test_criterion_4a_normal_density_cell():
    scenario = Scenario(density="f1", n_studies=10, mean_vec=(4, 5.5, 11), sigma_ws=1.0,
                        n_triplet=(35, 45, 30), mc_reps=100, inner_iterations=2000)
    start = time.perf_counter()
    rep = run_scenario(scenario)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep.bias_gwm_crude - 0.6610) <= 0.10
        and abs(rep.bias_gwm_sim - 0.0456) <= 0.03
        and elapsed < 600
    )
    report("criterion 4a (bias cell: normal, sigma 1, medium n)", ok,
           f"crude g-WM bias {rep.bias_gwm_crude:.4f} (0.6610 +/- 0.10), "
           f"sim {rep.bias_gwm_sim:.4f} (0.0456 +/- 0.03), {elapsed:.0f}s")


def test_criterion_4b_skewed_density_cell():
    scenario = Scenario(density="f2", n_studies=10, mean_vec=(4, 5.5, 11), sigma_ws=5.0,
                        n_triplet=(300, 400, 240), mc_reps=100, inner_iterations=2000)
    start = time.perf_counter()
    rep = run_scenario(scenario)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep.bias_gwm_crude - 0.0679) <= 0.02
        and abs(rep.bias_gwm_sim - 0.0125) <= 0.01
        and elapsed < 600
    )
    report("criterion 4b (bias cell: skewed, sigma 5, large n)", ok,
           f"crude g-WM bias {rep.bias_gwm_crude:.4f} (0.0679 +/- 0.02), "
           f"sim {rep.bias_gwm_sim:.4f} (0.0125 +/- 0.01), {elapsed:.0f}s")


def test_criterion_5a_crude_slope_vs_literal_ols():
    rng = np.random.default_rng(90125)
    codes = np.array([1.0, 2.0, 3.0])
    worst = 0.0
    for _ in range(1000):
        means = rng.uniform(-100, 100, 3)
        summary = StudySummary("r", tuple(means), tuple(rng.uniform(0.1, 10, 3)),
                               tuple(int(v) for v in rng.integers(2, 1000, 3)))
        beta, _ = crude_beta(summary.m, summary.sd, summary.n)
        slope = np.polyfit(codes, means, 1)[0]
        worst = max(worst, abs(beta - slope) / max(abs(slope), 1e-30))
    report("criterion 5a (crude slope closed form vs literal OLS)",
           worst < 1e-12, f"worst relative deviation {worst:.2e} over 1000 cases")


def test_criterion_5b_anova_denominator_identity():
    rng = np.random.default_rng(90126)
    worst = 0.0
    for _ in range(200):
        groups = [rng.normal(mu, rng.uniform(0.5, 4), size=int(rng.integers(3, 60)))
                  for mu in (4, 5.5, 9)]
        _, sd, _ = additive_regression(groups)
        # direct residual computation, no ANOVA table involved
        y = np.concatenate(groups)
        x = np.concatenate([np.full(len(g), c) for g, c in zip(groups, (1.0, 2.0, 3.0))])
        slope, intercept = np.polyfit(x, y, 1)
        rss = float(((y - intercept - slope * x) ** 2).sum())
        direct_sd = math.sqrt(rss / (len(y) - 2))
        worst = max(worst, abs(sd - direct_sd) / direct_sd)
    report("criterion 5b (ANOVA denominator identity sqrt(MSB/F) = residual SD)",
           worst < 1e-10, f"worst relative deviation {worst:.2e} over 200 draws")


def test_criterion_5c_mixture_standardization():
    n = 10**5
    bound = 4.0 / math.sqrt(n)
    worst = 0.0
    for i, density in enumerate(DENSITIES.values()):
        x = sample_standardized(density, n, 0.0, 1.0, substream(2024, i))
        worst = max(worst, abs(float(x.mean())), abs(float(x.std(ddof=1)) - 1.0))
    report("criterion 5c (mixture moment standardization, 4/sqrt(n) bound)",
           worst < bound, f"worst moment deviation {worst:.5f} < {bound:.5f}")


def test_criterion_5d_pooling_invariances():
    rng = np.random.default_rng(90127)
    ok = True
    for _ in range(200):
        k = int(rng.integers(2, 10))
        effects = [(float(rng.normal()), float(rng.uniform(0.01, 1))) for _ in range(k)]
        base = pool_random_effects(effects)
        perm = [effects[i] for i in rng.permutation(k)]
        other = pool_random_effects(perm)
        ok &= math.isclose(base.g_wm, other.g_wm, rel_tol=1e-9, abs_tol=1e-12)
        ok &= math.isclose(base.tau2, other.tau2, rel_tol=1e-9, abs_tol=1e-12)
    gs = [0.11, 0.42, 0.73, 0.9]
    hom = pool_random_effects([(g, 0.07) for g in gs])
    ok &= math.isclose(hom.g_wm, sum(gs) / len(gs), rel_tol=1e-12)
    report("criterion 5d (pooling permutation invariance, homogeneous mean)",
           ok, "200 permutations + equal-variance mean identity")


def test_criterion_5e_round_trip_recovery():
    rng = np.random.default_rng(90128)
    failures = 0
    for _ in range(1000):
        a, b, c, d = (int(v) for v in rng.integers(1, 251, size=4))
        orv = (a * d) / (b * c)
        se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
        record = ORRecord("AB_vs_AA", orv, math.exp(math.log(orv) - 1.96 * se),
                          math.exp(math.log(orv) + 1.96 * se), a + b, c + d)
        if not any(cand.cells == (a, b, c, d) for cand in recover_tables(record)):
            failures += 1
    report("criterion 5e (2x2 round-trip recovery, 1000 tables)",
           failures == 0, f"{failures} tables failed to round-trip")


def test_criterion_5f_irls_vs_grid_oracle():
    from addmeta.odds_recovery import MergedTable

    fixtures = [
        MergedTable(bb=(18, 12), ab=(18, 12), aa=(10, 20), ab_branch="plus",
                    bb_branch="minus", ab_distance=0.0),
        MergedTable(bb=(9, 1), ab=(5, 5), aa=(1, 9), ab_branch="plus",
                    bb_branch="plus", ab_distance=0.0),
        MergedTable(bb=(22, 8), ab=(14, 16), aa=(11, 19), ab_branch="plus",
                    bb_branch="plus", ab_distance=0.0),
    ]
    worst = max(abs(combined_or(m).beta - grid_search_logit_slope(m)) for m in fixtures)
    report("criterion 5f (IRLS vs grid-search likelihood oracle)",
           worst < 1e-3, f"worst |slope difference| {worst:.2e} over {len(fixtures)} fixtures")


def test_criterion_5g_worker_determinism():
    scenario = Scenario(density="f3", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=5.0,
                        n_triplet=(15, 20, 10), mc_reps=8, inner_iterations=50, seed=23)
    mc_serial = run_scenario(scenario, workers=1)
    mc_parallel = run_scenario(scenario, workers=3)
    report("criterion 5g (bit-identical results across worker counts)",
           mc_serial == mc_parallel, "bias study (1 vs 3 workers)")


SUPERIORITY_BATCH = [
    # (density, n_studies, mean_vec, sigma_ws, n_triplet); every row has
    # approximate true effect size >= 0.65
    ("f1", 5, (4, 5.5, 7), 1.0, (35, 45, 30)),
    ("f1", 10, (4, 5.5, 9), 1.0, (15, 20, 10)),
    ("f1", 15, (4, 5.5, 11), 1.0, (75, 100, 60)),
    ("f1", 10, (4, 5.5, 11), 5.0, (75, 100, 60)),
    ("f2", 5, (4, 5.5, 9), 1.0, (15, 45, 30)),
    ("f2", 10, (4, 5.5, 7), 1.0, (15, 20, 30)),
    ("f2", 15, (4, 5.5, 11), 1.0, (35, 45, 30)),
    ("f2", 10, (4, 5.5, 11), 5.0, (300, 400, 240)),
    ("f3", 5, (4, 5.5, 11), 1.0, (15, 20, 10)),
    ("f3", 10, (4, 5.5, 9), 1.0, (35, 45, 30)),
    ("f3", 15, (4, 5.5, 7), 1.0, (75, 100, 60)),
    ("f3", 15, (4, 5.5, 11), 5.0, (150, 200, 120)),
    ("f4", 5, (4, 5.5, 7), 1.0, (15, 45, 30)),
    ("f4", 10, (4, 5.5, 11), 1.0, (10, 15, 5)),
    ("f4", 15, (4, 5.5, 9), 1.0, (150, 200, 120)),
    ("f4", 10, (4, 5.5, 11), 5.0, (75, 100, 60)),
    ("f1", 5, (4, 5.5, 11), 1.0, (300, 400, 240)),
    ("f2", 15, (4, 5.5, 9), 1.0, (75, 100, 60)),
    ("f3", 10, (4, 5.5, 11), 1.0, (15, 45, 30)),
    ("f4", 15, (4, 5.5, 11), 1.0, (15, 20, 30)),
]


def test_criterion_6_simulation_superiority():
    losses = []
    for density, n_studies, mean_vec, sigma_ws, n_triplet in SUPERIORITY_BATCH:
        scenario = Scenario(density=density, n_studies=n_studies, mean_vec=mean_vec,
                            sigma_ws=sigma_ws, n_triplet=n_triplet,
                            mc_reps=30, inner_iterations=400)
        rep = run_scenario(scenario)
        if not rep.bias_gwm_sim < rep.bias_gwm_crude:
            losses.append((scenario, rep.bias_gwm_crude, rep.bias_gwm_sim))
    report("criterion 6 (simulation superiority across 20 strong-effect scenarios)",
           not losses, losses or "sim g-WM bias below crude in all 20 scenarios")
