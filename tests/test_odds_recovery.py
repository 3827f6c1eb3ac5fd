"""2x2 table recovery, pairing/merge, and the logistic recombination."""

import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addmeta import odds_recovery
from addmeta.odds_recovery import (
    MAX_NEWTON_ITERATIONS,
    CandidateTable,
    CombinedOR,
    MergedTable,
    ORRecord,
    _complete,
    _logistic,
    _score_and_information,
    combine_reported_ors,
    combined_or,
    recover_tables,
    se_from_ci,
    select_pairing,
)

AB_RECORD = ORRecord("AB_vs_AA", 3.00, 1.05, 8.60, 30, 30)
BB_RECORD = ORRecord("BB_vs_AB", 1.00, 0.36, 2.81, 30, 30)

# the two ways a logistic fit fails, told apart by message: no finite maximum, or out of steps
SEPARATION = "no finite Wald interval|singular information matrix"
NON_CONVERGENCE = r"no convergence in \d+ iterations"


def grid_search_logit_slope(merged: MergedTable) -> float:
    """Independent zooming grid search maximizing the logistic log-likelihood.

    Final grid step is below 1e-4 on both coefficients.
    """
    y = np.array([merged.aa[0], merged.ab[0], merged.bb[0]], dtype=float)
    n = np.array([sum(merged.aa), sum(merged.ab), sum(merged.bb)], dtype=float)
    x = np.array([1.0, 2.0, 3.0])
    center = np.zeros(2)
    span = 6.0
    points = 61
    for _ in range(4):
        b0s = np.linspace(center[0] - span, center[0] + span, points)
        b1s = np.linspace(center[1] - span, center[1] + span, points)
        eta = b0s[:, None, None] + b1s[None, :, None] * x[None, None, :]
        ll = (y * eta - n * np.logaddexp(0.0, eta)).sum(axis=2)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        center = np.array([b0s[i], b1s[j]])
        span = 4.0 * span / (points - 1)
    return float(center[1])


def reference_logistic_fit(y_counts: np.ndarray, totals: np.ndarray, x: np.ndarray):
    """Newton-Raphson MLE of logit(p) = b0 + b1*x with numpy arrays and a matrix solve.

    The fit ``combined_or`` used before its scalar form, kept as a reference.
    """
    design = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    trail = []
    for iteration in range(1, MAX_NEWTON_ITERATIONS + 1):
        eta = design @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        score = design.T @ (y_counts - totals * p)
        weights = totals * p * (1.0 - p)
        info = design.T @ (weights[:, None] * design)
        if not np.all(np.isfinite(info)):
            raise ValueError(f"information matrix not finite after {iteration} iterations")
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular information matrix at iteration {iteration}") from exc
        beta = beta + step
        trail.append((iteration, float(beta[0]), float(beta[1]), float(np.max(np.abs(score)))))
        if abs(beta[1]) > 20.0:
            raise ValueError(f"slope diverging (b1={beta[1]:.3g}) after {iteration} iterations")
        if np.max(np.abs(score)) < 1e-10 or np.max(np.abs(step)) < 1e-10:
            eta = design @ beta
            p = 1.0 / (1.0 + np.exp(-eta))
            weights = totals * p * (1.0 - p)
            info = design.T @ (weights[:, None] * design)
            covariance = np.linalg.inv(info)
            return beta, covariance, iteration
    raise ValueError(f"no convergence in {MAX_NEWTON_ITERATIONS} iterations; trail={trail}")


def reference_combined_or(merged: MergedTable) -> CombinedOR:
    """``combined_or`` as it was with ``reference_logistic_fit``.

    numpy's overflow and invalid-value warnings are silenced, so the
    reference computes with the same inf and nan a plain run produces.
    """
    y = np.array([merged.aa[0], merged.ab[0], merged.bb[0]], dtype=float)
    totals = np.array([sum(merged.aa), sum(merged.ab), sum(merged.bb)], dtype=float)
    x = np.array([1.0, 2.0, 3.0])
    keep = totals > 0
    if keep.sum() < 2:
        raise ValueError("need counts in at least two genotype groups")
    total_present = y.sum()
    if total_present == 0 or total_present == totals.sum():
        raise ValueError("phenotype vector is constant; no odds ratio is identifiable")
    with np.errstate(over="ignore", invalid="ignore"):
        beta, covariance, iterations = reference_logistic_fit(y[keep], totals[keep], x[keep])
    b1 = float(beta[1])
    se = math.sqrt(covariance[1, 1])
    return CombinedOR(math.exp(b1), math.exp(b1 - 1.96 * se), math.exp(b1 + 1.96 * se),
                      b1, se, iterations)


def discriminant(record: ORRecord) -> tuple[float, float]:
    """The discriminant and linear coefficient of the quadratic, in recover_tables' arithmetic."""
    or_value, m1, m2 = record.or_value, record.m_top, record.m_bottom
    se2 = se_from_ci(record.ci_lo, record.ci_hi) ** 2
    alpha = (1.0 - or_value) ** 2 + or_value * m2 * se2
    lam = or_value * m1 * (2.0 * (1.0 - or_value) - m2 * se2)
    gamma = or_value * m1 * (or_value * m1 + m2)
    return lam * lam - 4.0 * alpha * gamma, lam


def profile_slope_mle(groups, lo: float, hi: float) -> float:
    """The slope in [lo, hi] that maximizes the profile log-likelihood, by golden section.

    For each slope the intercept solves its score equation by bisection;
    ``groups`` holds (present, total, code) triples.  Independent of the
    Newton fit: no information matrix and no step control.  Each group adds
    its log-likelihood less its saturated value, y log(np/y) + (n-y)
    log(nq/(n-y)), which has the same maximizer as the log-likelihood but
    no terms near y*eta: with counts near 1e8 those round by more than the
    profile falls within the tests' tolerance of its maximum.
    """
    def sigmoid(eta):
        return 1.0 / (1.0 + math.exp(-eta)) if eta >= 0 else math.exp(eta) / (1.0 + math.exp(eta))

    def saturated_gap(count, total, log_p):
        return count * (log_p - math.log(count / total)) if count > 0 else 0.0

    def profile(b1):
        low, high = -200.0, 200.0
        for _ in range(200):
            b0 = (low + high) / 2.0
            score = math.fsum(y - n * sigmoid(b0 + b1 * x) for y, n, x in groups)
            low, high = (b0, high) if score > 0 else (low, b0)
        terms = []
        for y, n, x in groups:
            eta = b0 + b1 * x
            t = math.log1p(math.exp(-abs(eta)))  # log p = -(max(-eta, 0) + t), log q = -(max(eta, 0) + t)
            terms.append(saturated_gap(y, n, -(max(-eta, 0.0) + t)))
            terms.append(saturated_gap(n - y, n, -(max(eta, 0.0) + t)))
        return math.fsum(terms)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        lo, hi = (lo, right) if profile(left) > profile(right) else (left, hi)
    return (lo + hi) / 2.0


def merged_table(aa, ab, bb) -> MergedTable:
    return MergedTable(bb=bb, ab=ab, aa=aa, pairing="plus+plus", ab_distance=0.0)


class TestSeFromCi:
    def test_wide_interval(self):
        assert se_from_ci(1.05, 8.60) == pytest.approx(0.5364725, abs=1e-6)

    def test_unit_se_construction(self):
        assert se_from_ci(math.exp(-1.96), math.exp(1.96)) == pytest.approx(1.0, rel=1e-12)

    def test_null_interval(self):
        assert se_from_ci(0.36, 2.81) == pytest.approx(0.5241926, abs=1e-6)


class TestORRecord:
    def test_or_outside_ci_rejected(self):
        with pytest.raises(ValueError):
            ORRecord("AB_vs_AA", 9.0, 1.05, 8.60, 30, 30)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            ORRecord("BB_vs_AA", 2.0, 1.0, 4.0, 30, 30)

    def test_zero_margin(self):
        with pytest.raises(ValueError):
            ORRecord("AB_vs_AA", 2.0, 1.0, 4.0, 0, 30)

    @pytest.mark.parametrize("margin", [True, 120.0, 120.5, "120"])
    @pytest.mark.parametrize("name", ["m_top", "m_bottom"])
    def test_margin_that_is_not_an_integer_rejected(self, name, margin):
        margins = {"m_top": 30, "m_bottom": 30, name: margin}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {re.escape(repr(margin))}$"):
            ORRecord("AB_vs_AA", 2.0, 1.0, 4.0, **margins)

    @pytest.mark.parametrize("or_value", [0.0, -2.0, math.nan])
    def test_nonpositive_or_rejected(self, or_value):
        with pytest.raises(ValueError, match="outside its CI"):
            ORRecord("AB_vs_AA", or_value, 1.0, 4.0, 30, 30)

    @pytest.mark.parametrize("margin", [10**400, int(sys.float_info.max) + 2**970])
    @pytest.mark.parametrize("name", ["m_top", "m_bottom"])
    def test_margin_past_the_largest_float_rejected(self, name, margin):
        margins = {"m_top": 100, "m_bottom": 100, name: margin}
        with pytest.raises(ValueError, match=f"^{name} must be at most the largest float"):
            ORRecord("AB_vs_AA", 1.5, 1.1, 2.0, **margins)
        # the largest float itself is admitted, and recover_tables refuses its record
        margins[name] = int(sys.float_info.max)
        with pytest.raises(ValueError, match="coefficients leave the floating-point range"):
            recover_tables(ORRecord("AB_vs_AA", 1.5, 1.1, 2.0, **margins))

    def test_out_of_order_ci_rejected(self):
        with pytest.raises(ValueError, match="need 0 < ci_lo < ci_hi"):
            ORRecord("AB_vs_AA", 2.0, 4.0, 1.0, 30, 30)


class TestRecoverTables:
    def test_elevated_or_candidates(self):
        plus, minus = recover_tables(AB_RECORD)
        assert plus.root_branch == "plus" and minus.root_branch == "minus"
        assert plus.cells == (18, 12, 10, 20)
        assert minus.cells == (20, 10, 12, 18)

    def test_null_or_candidates(self):
        plus, minus = recover_tables(BB_RECORD)
        assert plus.cells == (12, 18, 12, 18)
        assert minus.cells == (18, 12, 18, 12)
        assert plus.a == pytest.approx(12.42, abs=0.01)
        assert minus.a == pytest.approx(17.58, abs=0.01)

    def test_roots_match_independent_quadratic_solver(self):
        for record in (AB_RECORD, BB_RECORD):
            se2 = se_from_ci(record.ci_lo, record.ci_hi) ** 2
            orv, m1, m2 = record.or_value, record.m_top, record.m_bottom
            alpha = (1 - orv) ** 2 + orv * m2 * se2
            lam = orv * m1 * (2 * (1 - orv) - m2 * se2)
            gamma = orv * m1 * (orv * m1 + m2)
            roots = sorted(np.roots([alpha, lam, gamma]).real)
            got = sorted(c.a for c in recover_tables(record))
            assert got == pytest.approx(roots, rel=1e-9)

    def test_candidates_reproduce_the_input_or_and_se(self):
        for record in (AB_RECORD, BB_RECORD):
            se = se_from_ci(record.ci_lo, record.ci_hi)
            for cand in recover_tables(record):
                odds = (cand.a * cand.d) / (cand.b * cand.c)
                assert odds == pytest.approx(record.or_value, rel=1e-6)
                se_back = math.sqrt(1 / cand.a + 1 / cand.b + 1 / cand.c + 1 / cand.d)
                assert se_back == pytest.approx(se, rel=1e-6)

    def test_rounding_preserves_margins(self):
        for record in (AB_RECORD, BB_RECORD):
            for cand in recover_tables(record):
                assert cand.cells[0] + cand.cells[1] == record.m_top
                assert cand.cells[2] + cand.cells[3] == record.m_bottom

    def test_null_or_symmetric_ci_gives_mirror_candidates(self):
        record = ORRecord("BB_vs_AB", 1.0, 0.25, 4.0, 20, 20)
        plus, minus = recover_tables(record)
        assert plus.a + minus.a == pytest.approx(20.0, rel=1e-9)
        assert plus.cells[0] + minus.cells[0] == 20
        assert plus.cells == tuple(reversed(minus.cells))

    def test_inconsistent_record_raises_negative_discriminant(self):
        record = ORRecord("AB_vs_AA", 3.0, 2.99, 3.01, 30, 30)
        with pytest.raises(ValueError, match="^AB_vs_AA record: no real solution for ORRecord"):
            recover_tables(record)

    def test_completion_with_a_zero_denominator_is_infeasible(self):
        # or_value * m1 + a * (1 - or_value) = 2 * 10 + 20 * (1 - 2) = 0
        with pytest.raises(ValueError, match="^degenerate completion at a=20.0$"):
            _complete(20.0, 2.0, 10, 5)

    def test_grazing_root_lost_to_rounding_is_kept(self):
        # the CI is rounded from the se^2 at which the two roots meet, at (20, 10, 10, 20)
        record = ORRecord("AB_vs_AA", 4.0, 1.367191, 11.70283, 30, 30)
        disc, lam = discriminant(record)
        assert -1e-9 * lam * lam < disc < 0.0
        candidates = recover_tables(record)
        assert [c.root_branch for c in candidates] == ["plus", "minus"]
        assert candidates[0].cells == candidates[1].cells == (20, 10, 10, 20)

    def test_root_outside_the_margins_is_dropped(self):
        # every real root lies in (0, m_top) in exact arithmetic; near 2e8 subjects
        # the rounding of the discriminant puts the minus root 6.4 counts past m_top
        record = ORRecord("AB_vs_AA", 80400000.0, 79600000.0, 81210000.0, 197206548, 1)
        (candidate,) = recover_tables(record)
        assert candidate.root_branch == "plus"
        assert candidate.cells == (197206547, 1, 1, 0)

    def test_both_roots_outside_the_margins_raise_infeasible(self):
        # the discriminant rounds to exactly 0 and the completion of the double
        # root puts cell d 39 counts past m_bottom
        record = ORRecord("AB_vs_AA", 3.2627e16, 1.9085e16, 5.5779e16, 3791159029, 7358272510)
        disc, _ = discriminant(record)
        assert disc == 0.0
        with pytest.raises(ValueError, match="AB_vs_AA record: both recovered tables fall outside"):
            recover_tables(record)

    @pytest.mark.parametrize("or_value, ci_lo, ci_hi", [
        (1e200, 1e199, 1e201),  # (1 - OR)**2 overflows
        (1e153, 1e152, 1e154),  # only gamma = OR * m_top * (OR * m_top + m_bottom) overflows
    ])
    def test_coefficients_past_the_float_range_raise_infeasible(self, or_value, ci_lo, ci_hi):
        record = ORRecord("BB_vs_AB", or_value, ci_lo, ci_hi, 50, 50)
        with pytest.raises(ValueError, match="BB_vs_AB record: the quadratic's coefficients leave "
                                             r"the floating-point range for ORRecord\("):
            recover_tables(record)

    def test_grazing_root_outside_the_margins_is_no_real_solution(self):
        # the discriminant is -8.1e-10 of lam^2, inside the grazing allowance, but the
        # double root lies at a = 246,303,871, past m_top: no table is lost to rounding
        record = ORRecord("AB_vs_AA", 20.9, 20.88, 20.92, 234518998, 1)
        disc, lam = discriminant(record)
        assert -1e-9 * lam * lam < disc < 0.0
        with pytest.raises(ValueError, match="AB_vs_AA record: no real solution"):
            recover_tables(record)

    def test_round_trip_1000_random_tables(self):
        rng = np.random.default_rng(20240818)
        hits = 0
        for _ in range(1000):
            a, b, c, d = (int(v) for v in rng.integers(1, 251, size=4))
            orv = (a * d) / (b * c)
            se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
            record = ORRecord(
                "AB_vs_AA",
                orv,
                math.exp(math.log(orv) - 1.96 * se),
                math.exp(math.log(orv) + 1.96 * se),
                a + b,
                c + d,
            )
            candidates = recover_tables(record)
            assert any(cand.cells == (a, b, c, d) for cand in candidates)
            hits += 1
            for cand in candidates:
                if min(cand.a, cand.b, cand.c, cand.d) > 1e-6:
                    odds = (cand.a * cand.d) / (cand.b * cand.c)
                    assert odds == pytest.approx(orv, rel=1e-6)
        assert hits == 1000


class TestSelectPairing:
    def test_published_distances_and_winner(self):
        ab = recover_tables(AB_RECORD)
        bb = recover_tables(BB_RECORD)
        distances = [
            math.dist(a.top_row, b.bottom_row) for a in ab for b in bb
        ]
        assert distances == pytest.approx([8.48, 0.0, 11.31, 2.83], abs=0.01)
        merged = select_pairing(ab, bb, 30, 30)
        assert merged.pairing == "plus+minus"
        assert merged.bb == (18, 12)
        assert merged.ab == (18, 12)
        assert merged.aa == (10, 20)
        assert merged.ab_distance == 0.0

    def test_invariant_to_candidate_list_order(self):
        ab = recover_tables(AB_RECORD)
        bb = recover_tables(BB_RECORD)
        merged = select_pairing(ab, bb, 30, 30)
        flipped = select_pairing(list(reversed(ab)), list(reversed(bb)), 30, 30)
        assert (flipped.bb, flipped.ab, flipped.aa) == (merged.bb, merged.ab, merged.aa)

    def test_degenerate_tie_picks_first_pair(self):
        def cand(branch, top, bottom):
            return CandidateTable(branch, *[float(v) for v in top + bottom],
                                  cells=top + bottom)

        ab = [cand("plus", (10, 10), (5, 15)), cand("minus", (10, 10), (15, 5))]
        bb = [cand("plus", (8, 12), (10, 10)), cand("minus", (12, 8), (10, 10))]
        merged = select_pairing(ab, bb, 20, 20)
        assert merged.pairing == "plus+plus"
        assert merged.aa == (5, 15)
        assert merged.bb == (8, 12)

    def test_fractional_average_rounded_with_margin_repair(self):
        def cand(branch, top, bottom):
            return CandidateTable(branch, *[float(v) for v in top + bottom],
                                  cells=top + bottom)

        ab = [cand("plus", (17, 13), (9, 21))]
        bb = [cand("plus", (19, 11), (18, 12))]
        merged = select_pairing(ab, bb, 30, 30)
        assert merged.ab_distance == pytest.approx(math.sqrt(2), rel=1e-12)
        assert merged.ab == (18, 12)  # (17.5, 12.5) -> present 18, absent repaired to 12


TABLE7 = MergedTable(bb=(18, 12), ab=(18, 12), aa=(10, 20),
                     pairing="plus+minus", ab_distance=0.0)


class TestCombinedOR:
    def test_published_fixture(self):
        result = combined_or(TABLE7)
        assert result.or_value == pytest.approx(1.7274, abs=0.002)
        assert result.ci_lo == pytest.approx(1.0217, abs=0.005)
        assert result.ci_hi == pytest.approx(2.9205, abs=0.005)
        assert result.or_value == pytest.approx(math.exp(result.beta), rel=1e-12)
        assert 1.0 <= result.or_value <= 3.0  # between the two input odds ratios

    def test_identical_rows_give_unit_or(self):
        merged = MergedTable(bb=(12, 18), ab=(12, 18), aa=(12, 18),
                             pairing="plus+plus", ab_distance=0.0)
        result = combined_or(merged)
        assert abs(result.beta) < 1e-8
        assert result.or_value == pytest.approx(1.0, abs=1e-8)

    def test_against_grid_search_oracle(self):
        steep = MergedTable(bb=(9, 1), ab=(5, 5), aa=(1, 9),
                            pairing="plus+plus", ab_distance=0.0)
        for merged in (TABLE7, steep):
            fitted = combined_or(merged)
            assert fitted.beta == pytest.approx(grid_search_logit_slope(merged), abs=1e-3)

    def test_separation_detected(self):
        merged = MergedTable(bb=(30, 0), ab=(15, 15), aa=(0, 30),
                             pairing="plus+plus", ab_distance=0.0)
        with pytest.raises(ValueError, match="genotype code separates the present from the absent"):
            combined_or(merged)

    @pytest.mark.parametrize("rows", [
        [(0, 30), (15, 15), (30, 0)],  # quasi: both counts only at the middle code
        [(0, 30), (0, 10), (5, 0)],  # complete
        [(9, 0), (0, 4), (0, 0)],  # complete, downward, with an empty group
        [(2, 66589981), (0, 1), (0, 375301268)],  # quasi, downward
        [(0, 1), (0, 0), (1, 1)],  # quasi at the top code
    ])
    def test_separation_is_decided_from_the_counts(self, rows):
        with pytest.raises(ValueError, match="genotype code separates the present from the absent"):
            combined_or(merged_table(*rows))

    @pytest.mark.parametrize("rows", [
        [(0, 5), (3, 2), (1, 4)],  # a zero cell, but present and absent overlap
        [(1, 533620), (2, 9218690), (4, 1)],  # MLE slope 15.06; an iterate passes 20
        [(64331692, 156), (844, 68271758), (52, 128114)],  # MLE slope -23.8
        # a full step lands where two groups' weights underflow: the information
        # turned singular there, or not finite, before logit moves were capped
        [(6, 18184513), (101, 357390170), (14663, 26)],
        [(4320544, 218), (80429157, 8044), (2, 3732)],
    ])
    def test_unseparated_counts_fit_to_the_profile_likelihood_maximum(self, rows):
        fitted = combined_or(merged_table(*rows))
        groups = [(present, present + absent, x) for x, (present, absent) in zip((1, 2, 3), rows)]
        expected = profile_slope_mle(groups, fitted.beta - 1.0, fitted.beta + 1.0)
        assert math.isclose(fitted.beta, expected, rel_tol=1e-6)
        assert fitted.iterations_used < MAX_NEWTON_ITERATIONS

    @pytest.mark.parametrize("rows", [
        [(0, 0), (0, 0), (0, 0)],  # no groups
        [(0, 0), (7, 9), (0, 0)],  # one group
        [(3, 0), (0, 0), (5, 0)],  # every subject present
        [(0, 4), (0, 6), (0, 8)],  # every subject absent
    ])
    def test_tables_without_two_groups_or_both_outcomes_are_separated(self, rows, monkeypatch):
        def no_fit(groups):
            raise AssertionError("a Newton step was taken")

        monkeypatch.setattr(odds_recovery, "_logistic_fit", no_fit)
        with pytest.raises(ValueError, match="genotype code separates the present from the absent"):
            combined_or(merged_table(*rows))

    def test_counts_past_the_float_products_fit(self):
        # at 1e155 per cell the information determinant's products pass the float
        # range; the counts are divided by a power of two before the fit
        for per_cell in (10**150, 10**155):
            fitted = combined_or(merged_table((per_cell, per_cell), (per_cell, per_cell), (0, 0)))
            assert (fitted.or_value, fitted.iterations_used) == (1.0, 1) and fitted.se_beta > 0
        fitted = combined_or(merged_table((10**160, 3 * 10**160), (2 * 10**160, 2 * 10**160),
                                          (3 * 10**160, 10**160)))
        assert math.isclose(fitted.or_value, 3.0, rel_tol=1e-14)

    @pytest.mark.parametrize("j", [2, 10, 100, 400])
    def test_scaling_a_table_past_the_bound_by_a_power_of_four_scales_only_the_se(self, j):
        rows = [(2**509 + 12345, 3 * 2**500 + 1), (98765, 2**508 - 1), (5 * 2**505 + 3, 7)]
        fitted = combined_or(merged_table(*rows))
        scaled = combined_or(merged_table(*((present << j, absent << j) for present, absent in rows)))
        assert (scaled.or_value, scaled.beta) == (fitted.or_value, fitted.beta)
        assert scaled.iterations_used == fitted.iterations_used
        assert scaled.se_beta == math.ldexp(fitted.se_beta, -j // 2)

    def test_non_convergence_of_a_scaled_table_reports_its_own_score(self, monkeypatch):
        monkeypatch.setattr(odds_recovery, "MAX_NEWTON_ITERATIONS", 1)
        rows = [(2**600 + 12345, 3 * 2**590 + 1), (98765, 2**598 - 1), (5 * 2**595 + 3, 7)]
        # the score at b = 0, where p = 1/2: sum over groups of (1, x) * (present - total/2)
        residuals = [(Fraction(present - absent, 2), x) for x, (present, absent) in zip((1, 2, 3), rows)]
        score = max(abs(sum(r for r, _ in residuals)), abs(sum(x * r for r, x in residuals)))
        with pytest.raises(ValueError, match=re.escape(f"max |score|={float(score):.3g}")):
            combined_or(merged_table(*rows))

    def test_wald_interval_past_the_float_range_is_refused(self):
        rows = [(3701129018633705511784774744583718482623856640, 3), (2, 7679390862347753472),
                (1, 6204496271943651357635444610824168811458940313190282651529686024192)]
        with pytest.raises(ValueError, match=r"^no finite Wald interval \(variance of b1 2\.85e\+58\) "
                                             "after 3 iterations$"):
            combined_or(merged_table(*rows))

    def test_constant_phenotype_rejected(self):
        merged = MergedTable(bb=(10, 0), ab=(10, 0), aa=(10, 0),
                             pairing="plus+plus", ab_distance=0.0)
        with pytest.raises(ValueError, match="genotype code separates the present from the absent"):
            combined_or(merged)

    def test_wald_interval_shape(self):
        result = combined_or(TABLE7)
        assert result.ci_lo == pytest.approx(math.exp(result.beta - 1.96 * result.se_beta), rel=1e-12)
        assert result.ci_hi == pytest.approx(math.exp(result.beta + 1.96 * result.se_beta), rel=1e-12)


LARGE_COUNTS = st.one_of(st.integers(0, 5), st.integers(0, 10**9), st.integers(10**9 - 5, 10**9))


class TestScalarFit:
    @settings(max_examples=400, deadline=None)
    @example(rows=[(0, 1), (0, 0), (1, 1)], empty=None)  # the reference's interval overflows
    @example(rows=[(0, 30), (15, 15), (30, 0)], empty=None)  # complete separation
    @given(
        rows=st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)), min_size=3, max_size=3),
        empty=st.sampled_from([None, 0, 1, 2]),
    )
    def test_matches_numpy_reference(self, rows, empty):
        if empty is not None:
            rows[empty] = (0, 0)
        merged = merged_table(*rows)
        try:
            reference = reference_combined_or(merged)
        except OverflowError:
            # the reference's Wald interval did not fit in a float; the scalar fit refuses it
            with pytest.raises(ValueError, match="no finite Wald interval"):
                combined_or(merged)
            return
        except ValueError as exc:
            # the reference's slope cap and its refusals of a table with fewer than two
            # groups or a constant phenotype are separation too; its other refusals
            # are worded alike
            message = str(exc)
            reference_separation = f"{SEPARATION}|slope diverging|two genotype groups|constant"
            expected = (SEPARATION if re.search(reference_separation, message)
                        else NON_CONVERGENCE if re.search(NON_CONVERGENCE, message) else re.escape(message))
            with pytest.raises(ValueError, match=expected):
                combined_or(merged)
            return
        fitted = combined_or(merged)
        assert fitted.iterations_used == reference.iterations_used
        # a slope that is zero up to rounding has no relative precision
        assert math.isclose(fitted.beta, reference.beta, rel_tol=1e-10, abs_tol=1e-13)
        assert math.isclose(fitted.se_beta, reference.se_beta, rel_tol=1e-10)

    @settings(max_examples=300, deadline=None)
    @example(rows=[(173065594, 0), (3, 0), (77313641, 3)])  # overflowed the Wald interval before
    @given(rows=st.lists(st.tuples(LARGE_COUNTS, LARGE_COUNTS), min_size=3, max_size=3))
    def test_large_counts_give_a_finite_fit_or_a_refusal(self, rows):
        try:
            fitted = combined_or(merged_table(*rows))
        except ValueError as exc:
            # an extreme table can need more Newton steps than the budget allows
            assert re.search(f"{SEPARATION}|{NON_CONVERGENCE}", str(exc))
            return
        values = (fitted.or_value, fitted.ci_lo, fitted.ci_hi, fitted.beta, fitted.se_beta)
        assert all(math.isfinite(v) for v in values)
        assert 0.0 < fitted.ci_lo <= fitted.or_value <= fitted.ci_hi

    def test_convergence_error_is_one_short_line(self, monkeypatch):
        monkeypatch.setattr(odds_recovery, "MAX_NEWTON_ITERATIONS", 1)
        with pytest.raises(ValueError, match=NON_CONVERGENCE) as failure:
            combined_or(merged_table((990347765, 445), (230, 489), (152319088, 178426492)))
        message = str(failure.value)
        assert len(message) < 300 and "\n" not in message
        assert "in 1 iterations" in message

    def test_score_near_a_billion_subjects_meets_the_stopping_rule(self):
        # total*p rounds to about 1e-7 here; the residual from the smaller tail does not
        fitted = combined_or(merged_table((990347765, 445), (230, 489), (152319088, 178426492)))
        assert all(math.isfinite(v) for v in (fitted.or_value, fitted.ci_lo, fitted.ci_hi))
        assert fitted.ci_lo < fitted.or_value < fitted.ci_hi
        assert fitted.iterations_used < MAX_NEWTON_ITERATIONS

    @pytest.mark.parametrize("rows, plain_steps", [
        (((4, 5), (762901180, 1781), (816379507, 2)), 56),
        (((515361160, 3), (318810171, 758), (1, 5)), 79),
    ])
    def test_step_halving_fits_tables_plain_newton_overshoots(self, rows, plain_steps, monkeypatch):
        merged = merged_table(*rows)
        fitted = combined_or(merged)
        assert fitted.iterations_used == 25
        # plain Newton (a smallest step fraction of 2 halves no step) overshoots twice from b = 0
        monkeypatch.setattr(odds_recovery, "MIN_STEP_SCALE", 2.0)
        with pytest.raises(ValueError, match=f"no convergence in {MAX_NEWTON_ITERATIONS} iterations"):
            combined_or(merged)
        monkeypatch.setattr(odds_recovery, "MAX_NEWTON_ITERATIONS", 500)
        plain = combined_or(merged)
        assert plain.iterations_used == plain_steps
        assert math.isclose(fitted.beta, plain.beta, rel_tol=1e-12)
        assert math.isclose(fitted.se_beta, plain.se_beta, rel_tol=1e-12)

    def test_log_uniform_counts_up_to_a_billion_converge(self):
        rng = random.Random(20270405)

        def count():
            return int(math.exp(rng.uniform(0.0, math.log(1e9))))

        for _ in range(2000):
            merged = merged_table(*((count(), count()) for _ in range(3)))
            try:
                combined_or(merged)
            except ValueError as exc:
                assert re.match(SEPARATION, str(exc))

    @pytest.mark.parametrize("b0, b1", [(0.0, 0.0), (-0.35, -0.1), (-0.4, 0.3), (2.0, -1.5)])
    def test_variance_matches_exact_arithmetic_at_a_lopsided_table(self, b0, b1):
        # one group near 1e9 subjects and two in single digits: i00*i11 - i01^2
        # loses about half its digits here
        groups = [(412_345_678.0, 999_999_937.0, 1.0), (3.0, 7.0, 2.0), (2.0, 5.0, 3.0)]
        _, _, i00, _, _, det = _score_and_information(groups, b0, b1, 1)
        info = {(0, 0): Fraction(0), (0, 1): Fraction(0), (1, 1): Fraction(0)}
        for _, total, x in groups:
            p = Fraction(_logistic(b0 + x * b1))
            w = Fraction(total) * p * (1 - p)
            info[0, 0] += w
            info[0, 1] += w * Fraction(x)
            info[1, 1] += w * Fraction(x) ** 2
        exact = info[0, 0] / (info[0, 0] * info[1, 1] - info[0, 1] ** 2)
        assert math.isclose(i00 / det, float(exact), rel_tol=1e-12)

    def test_information_with_every_weight_underflowed_is_singular(self):
        # at b0 = 800, q = e^-800 underflows to 0, so every weight total * p * q is 0
        groups = [(3.0, 10.0, 1.0), (5.0, 10.0, 2.0), (7.0, 10.0, 3.0)]
        with pytest.raises(ValueError, match="^singular information matrix at iteration 4$"):
            _score_and_information(groups, 800.0, 0.0, 4)

    @pytest.mark.parametrize("eta", [745.0, 746.0, 1e4, 1e308, math.inf])
    def test_logistic_saturates_without_overflow(self, eta):
        assert _logistic(eta) == 1.0
        assert 0.0 <= _logistic(-eta) < 1e-300

    def test_logistic_is_symmetric(self):
        for eta in (0.0, 1e-12, 0.5, 3.0, 36.0):
            assert _logistic(eta) + _logistic(-eta) == pytest.approx(1.0, rel=1e-15)


# a count log-uniform on 1-5000, so no table is separated
CELL = st.floats(0.0, math.log(5000.0)).map(lambda e: int(math.exp(e)))
ROWS = st.lists(st.tuples(CELL, CELL), min_size=3, max_size=3)


def assert_negated(fit: CombinedOR, mirrored: CombinedOR) -> None:
    # a slope that is zero up to rounding has no relative precision, and its rounding grows
    # with the slope's standard error (1.2e-13 at se 20 for the rows 1/1, 1/4914, 1/1), so
    # the absolute part is a share of that error; the step count may differ
    assert math.isclose(mirrored.beta, -fit.beta, rel_tol=1e-10, abs_tol=1e-12 * fit.se_beta)
    assert math.isclose(mirrored.se_beta, fit.se_beta, rel_tol=1e-10)


class TestRelations:
    @settings(max_examples=300, deadline=None)
    @given(rows=ROWS)
    def test_swapping_present_and_absent_negates_the_slope(self, rows):
        swapped = [(absent, present) for present, absent in rows]
        assert_negated(combined_or(merged_table(*rows)), combined_or(merged_table(*swapped)))

    @settings(max_examples=300, deadline=None)
    @given(rows=ROWS)
    @example(rows=[(1, 1), (1, 4914), (1, 1)])  # a symmetric table: a slope of 0 up to rounding
    def test_reversing_the_genotype_order_negates_the_slope(self, rows):
        assert_negated(combined_or(merged_table(*rows)), combined_or(merged_table(*reversed(rows))))


def test_full_pipeline_matches_published_example():
    merged, combined = combine_reported_ors(AB_RECORD, BB_RECORD)
    assert (merged.bb, merged.ab, merged.aa) == ((18, 12), (18, 12), (10, 20))
    assert combined.or_value == pytest.approx(1.7274, abs=0.002)


def test_full_pipeline_rejects_swapped_labels():
    with pytest.raises(ValueError):
        combine_reported_ors(BB_RECORD, AB_RECORD)
