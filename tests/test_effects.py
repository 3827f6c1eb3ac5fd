"""Crude estimator and the shared d-to-g machinery."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addmeta.bias_study import Scenario
from addmeta.effects import (
    StudySummary,
    cohens_d_variance,
    crude_beta,
    crude_effect,
    effect_from_d,
    hedges_j,
)
from addmeta.odds_recovery import ORRecord

SATIETY = StudySummary("SATIETY", (11.45, 12.16, 14.73), (8.29, 8.38, 9.63), (63, 63, 42))
EUFEST = StudySummary("EUFEST", (4.04, 5.35, 4.67), (5.11, 5.88, 6.44), (74, 40, 9))
ZHH = StudySummary("ZHH-FE", (3.24, 2.44, 3.64), (2.11, 1.23, 2.42), (25, 24, 21))


def reference_pooled_sd(*groups):
    """The SD pooled over (sd, n) groups, sqrt(sum (n-1) sd^2 / (sum n - groups)), in Python floats."""
    return math.sqrt(sum((n - 1) * sd**2 for sd, n in groups) / (sum(n for _, n in groups) - len(groups)))


def reference_crude(m, sd, n, standardizer="pair-mean"):
    """One study's crude (beta, sd_beta), written out from the published formulas."""
    beta = (m[2] - m[0]) / 2.0
    if standardizer == "pooled":
        return beta, reference_pooled_sd(*zip(sd, n))
    sd12 = reference_pooled_sd((sd[0], n[0]), (sd[1], n[1]))
    sd23 = reference_pooled_sd((sd[1], n[1]), (sd[2], n[2]))
    return beta, (sd12 + sd23) / 2.0


class TestStudySummary:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="exactly 3"):
            StudySummary("x", (1, 2), (1, 1, 1), (5, 5, 5))

    def test_rejects_nonpositive_sd(self):
        with pytest.raises(ValueError, match="standard deviations"):
            StudySummary("x", (1, 2, 3), (1, 0, 1), (5, 5, 5))

    @pytest.mark.parametrize("m, sd", [
        ((math.nan, 2, 3), (1, 1, 1)),
        ((1, 2, math.inf), (1, 1, 1)),
        ((1, 2, 3), (1, math.nan, 1)),
        ((1, 2, 3), (1, 1, math.inf)),
    ], ids=["m-nan", "m-inf", "sd-nan", "sd-inf"])
    def test_rejects_non_finite_statistics(self, m, sd):
        with pytest.raises(ValueError, match="finite"):
            StudySummary("x", m, sd, (5, 5, 5))

    @pytest.mark.parametrize("sd, square_is_normal", [
        (2.0**-511, True),
        (math.nextafter(2.0**-511, 0.0), False),
        (math.nextafter(2.0**512, 0.0), True),
        (2.0**512, False),
    ])
    def test_sd_range_is_where_the_square_is_a_normal_float(self, sd, square_is_normal):
        assert (sys.float_info.min <= sd * sd < math.inf) == square_is_normal
        if square_is_normal:
            StudySummary("x", (1, 2, 3), (1, sd, 1), (5, 5, 5))
        else:
            with pytest.raises(ValueError, match="squares are normal floats"):
                StudySummary("x", (1, 2, 3), (1, sd, 1), (5, 5, 5))

    def test_rejects_tiny_groups(self):
        with pytest.raises(ValueError, match=r"^x: n2 must be an integer >= 2, got 1$"):
            StudySummary("x", (1, 2, 3), (1, 1, 1), (5, 1, 5))

    @pytest.mark.parametrize("size", [True, 10.0, 10.5, "10"])
    def test_rejects_sizes_that_are_not_integers(self, size):
        with pytest.raises(ValueError, match=rf"^x: n3 must be an integer >= 2, got {re.escape(repr(size))}$"):
            StudySummary("x", (1, 2, 3), (1, 1, 1), (10, 15, size))

    def test_takes_numpy_integer_sizes(self):
        assert StudySummary("x", (1, 2, 3), (1, 1, 1), tuple(np.int64(k) for k in (10, 15, 5))).n == (10, 15, 5)

    @pytest.mark.parametrize("n", [(10**30, 15, 5), (2**53 + 1, 15, 5)])
    def test_rejects_sizes_that_are_not_integers_a_float_holds(self, n):
        with pytest.raises(ValueError, match=r"^x: sample sizes must be integers that a float holds exactly"):
            StudySummary("x", (1, 2, 3), (1, 1, 1), n)

    # k = max / 8 makes 4 * n_total = max + 8, past the float range
    @pytest.mark.parametrize("k", [int(sys.float_info.max / 8), 10**400], ids=["one-past", "past-float"])
    def test_rejects_sizes_whose_counts_leave_the_float_range(self, k):
        with pytest.raises(ValueError, match=r"^x: sample sizes must sum to below about 4\.5e307$"):
            StudySummary("x", (1, 2, 3), (1, 1, 1), (k, k, 2))

    @pytest.mark.parametrize("standardizer", ["pair-mean", "pooled"])
    def test_largest_sizes_keep_every_count_in_the_float_range(self, standardizer):
        # every count the estimators turn into a float, up to hedges_j's 8k - 9, is finite
        k = int(math.nextafter(sys.float_info.max / 8, 0.0))
        eff = crude_effect(StudySummary("x", (1, 2, 3), (1, 1, 1), (k, k, 2)), standardizer)
        assert all(math.isfinite(v) for v in (eff.beta, eff.sd_beta, eff.d, eff.g, eff.v_g)), eff

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SATIETY.m = (0, 0, 0)

    # the id's UTF-8 bytes key the study's simulation stream
    @pytest.mark.parametrize("study_id, got", [(7, "type int"), ("\ud800", r"'\\ud800'")], ids=["int", "surrogate"])
    def test_rejects_an_id_that_is_not_utf8_text(self, study_id, got):
        with pytest.raises(ValueError, match=rf"^study_id must be a str that UTF-8 can encode, got {got}$"):
            StudySummary(study_id, (1, 2, 3), (1, 1, 1), (5, 5, 5))


# the largest int that Python writes as text has 4300 digits (sys.get_int_max_str_digits)
@pytest.mark.parametrize("build, message", [
    (lambda k: ORRecord("AB_vs_AA", 1.5, 1.1, 2.0, k, 100), "m_top must be an integer >= 1"),
    (lambda k: Scenario("f1", 5, (4, 5.5, 7), 1.0, (10, 15, 5), mc_reps=k), "mc_reps must be an integer >= 2"),
    (lambda k: StudySummary("x", (1, 2, 3), (1, 1, 1), (k, 5, 5)), "x: n1 must be an integer >= 2"),
], ids=["or-margin", "scenario-reps", "study-size"])
def test_a_refused_integer_too_long_to_write_is_named_by_sign_and_bit_count(build, message):
    for k, shown in [(-10**5000, "a negative integer of 16610 bits"),
                     (-10**4300, "a negative integer of 14285 bits"),
                     (-(10**4300 - 1), "-" + "9" * 4300),
                     (-7, "-7")]:
        with pytest.raises(ValueError, match=f"^{message}, got {shown}$"):
            build(k)


class TestReferencePooledSd:
    def test_satiety_pair(self):
        # ((63-1)*8.29^2 + (63-1)*8.38^2) / 124, computed by hand
        assert reference_pooled_sd((8.29, 63), (8.38, 63)) == pytest.approx(8.3351215, abs=1e-6)

    def test_eufest_pair(self):
        # ((74-1)*5.11^2 + (40-1)*5.88^2) / 112 = 29.058794...
        assert reference_pooled_sd((5.11, 74), (5.88, 40)) == pytest.approx(math.sqrt(29.0587937), abs=1e-6)

    def test_identical_groups_return_s(self):
        assert reference_pooled_sd((3.7, 50), (3.7, 50)) == pytest.approx(3.7, rel=1e-15)


class TestCrudeBeta:
    def test_flat_means_zero_slope(self):
        summary = StudySummary("flat", (5, 5, 5), (1, 2, 3), (10, 10, 10))
        beta, _ = crude_beta(summary.m, summary.sd, summary.n)
        assert beta == 0.0

    def test_anchor_scenario_slope(self):
        summary = StudySummary("anchor", (4, 5.5, 7), (1, 1, 1), (10, 10, 10))
        assert crude_beta(summary.m, summary.sd, summary.n)[0] == pytest.approx(1.5, rel=1e-15)

    def test_satiety_pair_mean(self):
        beta, sd_beta = crude_beta(SATIETY.m, SATIETY.sd, SATIETY.n, "pair-mean")
        assert beta == pytest.approx(1.64, abs=1e-12)
        assert sd_beta == pytest.approx(8.6168777, abs=1e-6)

    def test_satiety_pooled_matches_published(self):
        beta, sd_beta = crude_beta(SATIETY.m, SATIETY.sd, SATIETY.n, "pooled")
        assert beta == pytest.approx(1.625, abs=0.03)
        assert sd_beta == pytest.approx(8.675, abs=0.03)

    def test_closed_form_equals_literal_ols_1000_cases(self):
        rng = np.random.default_rng(424242)
        codes = np.array([1.0, 2.0, 3.0])
        for _ in range(1000):
            means = rng.uniform(-50, 50, size=3)
            slope = np.polyfit(codes, means, 1)[0]
            summary = StudySummary("r", tuple(means), tuple(rng.uniform(0.1, 9, 3)), (5, 6, 7))
            beta, _ = crude_beta(summary.m, summary.sd, summary.n)
            assert beta == pytest.approx(slope, rel=1e-12, abs=1e-12)

    def test_slope_invariant_to_code_origin(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            means = rng.uniform(-10, 10, size=3)
            s123 = np.polyfit([1, 2, 3], means, 1)[0]
            s012 = np.polyfit([0, 1, 2], means, 1)[0]
            assert s123 == pytest.approx(s012, rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        studies=st.lists(st.tuples(st.tuples(*[st.floats(-1e50, 1e50)] * 3),
                                   st.tuples(*[st.floats(1e-50, 1e50)] * 3)), min_size=1, max_size=15),
        n=st.tuples(*[st.integers(2, 10**6)] * 3),
        standardizer=st.sampled_from(["pair-mean", "pooled"]),
    )
    def test_one_study_and_every_row_equal_the_reference_bit_for_bit(self, studies, n, standardizer):
        expected = [reference_crude(m, sd, n, standardizer) for m, sd in studies]
        assert [crude_beta(m, sd, n, standardizer) for m, sd in studies] == expected

    @pytest.mark.parametrize("standardizer", ["pair-mean", "pooled"])
    def test_sds_are_squared_as_python_floats(self, standardizer):
        # s * s and s ** 2 (libm's pow) round these SDs differently; squaring
        # them with s * s changes sd_beta in 5 of these 14 studies
        sds = [s for s in np.random.default_rng(3).uniform(0.5, 9.0, 20_000).tolist() if s * s != s**2]
        if not sds:
            pytest.skip("this libm's pow(s, 2) rounds as s * s does")
        m, n = (4.0, 5.5, 7.0), (10, 15, 5)
        studies = list(zip(sds, sds[1:] + sds[:1], sds[2:] + sds[:2]))
        expected = [reference_crude(m, sd, n, standardizer) for sd in studies]
        assert [crude_beta(m, sd, n, standardizer) for sd in studies] == expected

    def test_unknown_standardizer(self):
        with pytest.raises(ValueError, match="standardizer"):
            crude_beta(SATIETY.m, SATIETY.sd, SATIETY.n, "median")


class TestCohensDVariance:
    def test_zero_effect_balanced(self):
        assert cohens_d_variance(100, 100, 0.0) == pytest.approx(0.02, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 17, 250])
    def test_symmetric_null_is_two_over_n(self, n):
        assert cohens_d_variance(n, n, 0.0) == pytest.approx(2.0 / n, rel=1e-15)

    def test_satiety_style_inputs(self):
        # 126/3969 + 0.187^2/252
        assert cohens_d_variance(63, 63, 0.187) == pytest.approx(0.0318848, abs=1e-6)


class TestHedgesJ:
    def test_balanced_63(self):
        assert hedges_j(63, 63) == pytest.approx(1 - 3 / 495, rel=1e-15)

    def test_smallest_admissible(self):
        assert hedges_j(2, 2) == pytest.approx(1 - 3 / 7, rel=1e-15)

    def test_limit_toward_one(self):
        assert abs(hedges_j(10**6, 10**6) - 1.0) < 1e-5

    def test_strictly_increasing_below_one(self):
        totals = [3, 4, 5, 8, 13, 21, 55, 200, 1000, 10**4, 10**5, 10**6]
        values = [hedges_j(t - t // 2, t // 2) if t // 2 >= 1 else hedges_j(t - 1, 1) for t in totals]
        assert all(v < 1 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))


def _two_pair(d, n):
    """g and v_g written out: the inverse-variance mean of J*d over (n1, n2) and (n2, n3)."""
    n1, n2, n3 = n
    j12, j23 = hedges_j(n1, n2), hedges_j(n2, n3)
    v12 = j12**2 * cohens_d_variance(n1, n2, d)
    v23 = j23**2 * cohens_d_variance(n2, n3, d)
    return (j12 * d / v12 + j23 * d / v23) / (1 / v12 + 1 / v23), 1 / (1 / v12 + 1 / v23)


class TestCombinePairs:
    """effect_from_d's inverse-variance combination of the AA-AB and AB-BB pairs."""

    def test_identical_pairs(self):
        # n1 == n3 makes the two pairs identical: g is their common g, at half its variance
        eff = effect_from_d("s", 0.0, 1.0, 0.37, (30, 12, 30), "crude")
        j = hedges_j(30, 12)
        assert eff.g == pytest.approx(j * 0.37, rel=1e-15)
        assert eff.v_g == pytest.approx(j * j * cohens_d_variance(30, 12, 0.37) / 2, rel=1e-15)

    def test_equal_weights_average(self):
        # n = (8, 2, 10): the pairs' J differ, and at one d their variances
        # J**2 * v_d agree, so g must be the plain mean of two different pair gs
        n1, n2, n3 = 8, 2, 10
        j12, j23 = hedges_j(n1, n2), hedges_j(n2, n3)
        a12, a23 = cohens_d_variance(n1, n2, 0.0), cohens_d_variance(n2, n3, 0.0)
        b12, b23 = 1 / (2 * (n1 + n2)), 1 / (2 * (n2 + n3))
        d = ((j23**2 * a23 - j12**2 * a12) / (j12**2 * b12 - j23**2 * b23)) ** 0.5
        v12 = j12**2 * cohens_d_variance(n1, n2, d)
        assert v12 == pytest.approx(j23**2 * cohens_d_variance(n2, n3, d), rel=1e-12)
        assert j12 * d != pytest.approx(j23 * d, rel=1e-3)
        eff = effect_from_d("s", 0.0, 1.0, d, (n1, n2, n3), "crude")
        assert eff.g == pytest.approx((j12 * d + j23 * d) / 2, rel=1e-12)
        assert eff.v_g == pytest.approx(v12 / 2, rel=1e-12)

    def test_hand_computed_weighting(self):
        # d = 0.3, pairs (10, 20) and (20, 40):
        # J12 = 1 - 3/111, v_d12 = 30/200 + 0.09/60 = 0.1515
        # J23 = 1 - 3/231, v_d23 = 60/800 + 0.09/120 = 0.07575
        eff = effect_from_d("s", 0.0, 1.0, 0.3, (10, 20, 40), "crude")
        j12, j23 = 108 / 111, 228 / 231
        w12, w23 = 1 / (j12**2 * 0.1515), 1 / (j23**2 * 0.07575)
        assert eff.g == pytest.approx((j12 * 0.3 * w12 + j23 * 0.3 * w23) / (w12 + w23), rel=1e-12)
        assert eff.v_g == pytest.approx(1 / (w12 + w23), rel=1e-12)
        assert (eff.g, eff.v_g) == (pytest.approx(0.2946729, rel=1e-6), pytest.approx(0.04872472, rel=1e-6))

    @given(
        d=st.floats(-3, 3),
        n=st.tuples(st.integers(2, 500), st.integers(2, 500), st.integers(2, 500)),
    )
    @settings(max_examples=200, deadline=None)
    def test_swap_invariance_and_convexity(self, d, n):
        eff = effect_from_d("s", 0.0, 1.0, d, n, "crude")
        rev = effect_from_d("s", 0.0, 1.0, d, n[::-1], "crude")
        assert (rev.g, rev.v_g) == (eff.g, eff.v_g)
        g12, g23 = hedges_j(n[0], n[1]) * d, hedges_j(n[1], n[2]) * d
        assert min(g12, g23) - 1e-12 <= eff.g <= max(g12, g23) + 1e-12


class TestCrudeEffect:
    def test_flat_means_zero_effect(self):
        summary = StudySummary("flat", (2, 2, 2), (4, 7, 1), (12, 9, 30))
        eff = crude_effect(summary)
        assert eff.d == 0.0 and eff.g == 0.0
        assert eff.method == "crude"

    def test_satiety_d_near_published(self):
        assert crude_effect(SATIETY, "pair-mean").d == pytest.approx(0.187, abs=0.015)
        assert crude_effect(SATIETY, "pooled").d == pytest.approx(0.187, abs=0.015)

    def test_eufest_d_near_published(self):
        assert crude_effect(EUFEST, "pooled").d == pytest.approx(0.057, abs=0.01)

    def test_d_is_beta_over_sd_exactly(self):
        for summary in (SATIETY, EUFEST, ZHH):
            eff = crude_effect(summary)
            assert eff.d == eff.beta / eff.sd_beta

    def test_pairs_share_the_combined_d(self):
        eff = crude_effect(ZHH)
        g, v_g = _two_pair(eff.d, ZHH.n)
        assert eff.g == pytest.approx(g, rel=1e-15)
        assert eff.v_g == pytest.approx(v_g, rel=1e-15)

    def test_g_between_pair_gs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            summary = StudySummary(
                "r",
                tuple(rng.uniform(-5, 5, 3)),
                tuple(rng.uniform(0.2, 8, 3)),
                tuple(int(v) for v in rng.integers(2, 400, 3)),
            )
            eff = crude_effect(summary)
            g12 = hedges_j(summary.n[0], summary.n[1]) * eff.d
            g23 = hedges_j(summary.n[1], summary.n[2]) * eff.d
            lo = min(g12, g23) - 1e-12
            hi = max(g12, g23) + 1e-12
            assert lo <= eff.g <= hi


def test_pairwise_effects_uses_right_group_sizes():
    # the middle group is shared: pairs are (n1, n2) and (n2, n3), never (n1, n3)
    g, v_g = _two_pair(0.3, (10, 20, 40))
    eff = effect_from_d("s", 0.0, 1.0, 0.3, (10, 20, 40), "crude")
    assert (eff.g, eff.v_g) == (pytest.approx(g, rel=1e-15), pytest.approx(v_g, rel=1e-15))
    moved = effect_from_d("s", 0.0, 1.0, 0.3, (20, 10, 40), "crude")
    assert moved.v_g != pytest.approx(eff.v_g, rel=1e-6)
    assert moved.v_g == pytest.approx(_two_pair(0.3, (20, 10, 40))[1], rel=1e-15)


def _merged(groups):
    """(n, mean, sd) of the union of (n, mean, sd) groups, from their summaries alone."""
    n = sum(k for k, _, _ in groups)
    mean = sum(k * m for k, m, _ in groups) / n
    sse = sum((k - 1) * s**2 + k * (m - mean) ** 2 for k, m, s in groups)
    return n, mean, math.sqrt(sse / (n - 1))


@settings(max_examples=200, deadline=None)
@given(groups=st.tuples(*[st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30)] * 3),
       dominant=st.booleans())
def test_dominant_and_recessive_d_from_summaries_equals_the_individual_data_d(groups, dominant):
    # a dominant model compares AA with AB and BB merged, a recessive one AA and AB merged with BB
    split = 1 if dominant else 2
    data = [np.array(g) for g in groups]
    low, high = np.concatenate(data[:split]), np.concatenate(data[split:])
    rss = ((low - low.mean()) ** 2).sum() + ((high - high.mean()) ** 2).sum()
    pooled = math.sqrt(rss / (len(low) + len(high) - 2))
    assume(pooled > 0.1)
    summaries = [(len(g), float(g.mean()), float(g.std(ddof=1))) for g in data]
    (n_lo, m_lo, sd_lo), (n_hi, m_hi, sd_hi) = _merged(summaries[:split]), _merged(summaries[split:])
    from_summaries = (m_hi - m_lo) / reference_pooled_sd((sd_lo, n_lo), (sd_hi, n_hi))
    assert from_summaries == pytest.approx((high.mean() - low.mean()) / pooled, rel=1e-12, abs=1e-12)
