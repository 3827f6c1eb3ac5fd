"""Crude estimator and the shared d-to-g machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addmeta.effects import (
    PairEffect,
    StudySummary,
    cohens_d_variance,
    combine_pairs,
    crude_beta,
    crude_effect,
    hedges_j,
    pairwise_effects,
    pooled_sd,
)

SATIETY = StudySummary("SATIETY", (11.45, 12.16, 14.73), (8.29, 8.38, 9.63), (63, 63, 42))
EUFEST = StudySummary("EUFEST", (4.04, 5.35, 4.67), (5.11, 5.88, 6.44), (74, 40, 9))
ZHH = StudySummary("ZHH-FE", (3.24, 2.44, 3.64), (2.11, 1.23, 2.42), (25, 24, 21))


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

    def test_rejects_tiny_groups(self):
        with pytest.raises(ValueError, match="sample sizes"):
            StudySummary("x", (1, 2, 3), (1, 1, 1), (5, 1, 5))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SATIETY.m = (0, 0, 0)


class TestPooledSd:
    def test_satiety_pair(self):
        # ((63-1)*8.29^2 + (63-1)*8.38^2) / 124, computed by hand
        assert pooled_sd(8.29, 63, 8.38, 63) == pytest.approx(8.3351215, abs=1e-6)

    def test_eufest_pair(self):
        # ((74-1)*5.11^2 + (40-1)*5.88^2) / 112 = 29.058794...
        assert pooled_sd(5.11, 74, 5.88, 40) == pytest.approx(math.sqrt(29.0587937), abs=1e-6)

    def test_identical_groups_return_s(self):
        assert pooled_sd(3.7, 50, 3.7, 50) == pytest.approx(3.7, rel=1e-15)

    @given(
        sd_a=st.floats(0.01, 50),
        n_a=st.integers(2, 500),
        sd_b=st.floats(0.01, 50),
        n_b=st.integers(2, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_exact(self, sd_a, n_a, sd_b, n_b):
        assert pooled_sd(sd_a, n_a, sd_b, n_b) == pooled_sd(sd_b, n_b, sd_a, n_a)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pooled_sd(1.0, 0, 1.0, 5)
        with pytest.raises(ValueError):
            pooled_sd(-1.0, 5, 1.0, 5)
        with pytest.raises(ValueError):
            pooled_sd(1.0, 1, 1.0, 1)


class TestCrudeBeta:
    def test_flat_means_zero_slope(self):
        summary = StudySummary("flat", (5, 5, 5), (1, 2, 3), (10, 10, 10))
        beta, _ = crude_beta(summary)
        assert beta == 0.0

    def test_anchor_scenario_slope(self):
        summary = StudySummary("anchor", (4, 5.5, 7), (1, 1, 1), (10, 10, 10))
        assert crude_beta(summary)[0] == pytest.approx(1.5, rel=1e-15)

    def test_satiety_pair_mean(self):
        beta, sd_beta = crude_beta(SATIETY, "pair-mean")
        assert beta == pytest.approx(1.64, abs=1e-12)
        assert sd_beta == pytest.approx(8.6168777, abs=1e-6)

    def test_satiety_pooled_matches_published(self):
        beta, sd_beta = crude_beta(SATIETY, "pooled")
        assert beta == pytest.approx(1.625, abs=0.03)
        assert sd_beta == pytest.approx(8.675, abs=0.03)

    def test_closed_form_equals_literal_ols_1000_cases(self):
        rng = np.random.default_rng(424242)
        codes = np.array([1.0, 2.0, 3.0])
        for _ in range(1000):
            means = rng.uniform(-50, 50, size=3)
            slope = np.polyfit(codes, means, 1)[0]
            summary = StudySummary("r", tuple(means), tuple(rng.uniform(0.1, 9, 3)), (5, 6, 7))
            beta, _ = crude_beta(summary)
            assert beta == pytest.approx(slope, rel=1e-12, abs=1e-12)

    def test_slope_invariant_to_code_origin(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            means = rng.uniform(-10, 10, size=3)
            s123 = np.polyfit([1, 2, 3], means, 1)[0]
            s012 = np.polyfit([0, 1, 2], means, 1)[0]
            assert s123 == pytest.approx(s012, rel=1e-12, abs=1e-12)

    def test_unknown_standardizer(self):
        with pytest.raises(ValueError, match="standardizer"):
            crude_beta(SATIETY, "median")


class TestCohensDVariance:
    def test_zero_effect_balanced(self):
        assert cohens_d_variance(100, 100, 0.0) == pytest.approx(0.02, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 17, 250])
    def test_symmetric_null_is_two_over_n(self, n):
        assert cohens_d_variance(n, n, 0.0) == pytest.approx(2.0 / n, rel=1e-15)

    def test_satiety_style_inputs(self):
        # 126/3969 + 0.187^2/252
        assert cohens_d_variance(63, 63, 0.187) == pytest.approx(0.0318848, abs=1e-6)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            cohens_d_variance(0, 10, 0.5)


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

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hedges_j(1, 1)


def _pair(g, v):
    return PairEffect(d=g, v_d=v, j=1.0, g=g, v_g=v, n_lo=10, n_hi=10)


class TestCombinePairs:
    def test_identical_pairs(self):
        g, v = combine_pairs(_pair(0.37, 0.02), _pair(0.37, 0.02))
        assert g == pytest.approx(0.37, rel=1e-15)
        assert v == pytest.approx(0.01, rel=1e-15)

    def test_equal_weights_average(self):
        g, v = combine_pairs(_pair(1.0, 1.0), _pair(0.0, 1.0))
        assert (g, v) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_hand_computed_weighting(self):
        g, v = combine_pairs(_pair(0.2, 0.01), _pair(0.4, 0.04))
        assert g == pytest.approx(0.24, rel=1e-12)
        assert v == pytest.approx(0.008, rel=1e-12)

    @given(
        g1=st.floats(-3, 3), v1=st.floats(0.001, 5),
        g2=st.floats(-3, 3), v2=st.floats(0.001, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_swap_invariance_and_convexity(self, g1, v1, g2, v2):
        a, b = _pair(g1, v1), _pair(g2, v2)
        g_ab, v_ab = combine_pairs(a, b)
        g_ba, v_ba = combine_pairs(b, a)
        assert g_ab == pytest.approx(g_ba, rel=1e-12, abs=1e-12)
        assert v_ab == pytest.approx(v_ba, rel=1e-12, abs=1e-12)
        assert min(g1, g2) - 1e-12 <= g_ab <= max(g1, g2) + 1e-12

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            combine_pairs(_pair(0.1, 0.0), _pair(0.1, 0.1))


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
        assert eff.pair12.d == eff.d == eff.pair23.d
        assert eff.pair12.g == pytest.approx(eff.pair12.j * eff.d, rel=1e-15)
        assert eff.pair23.v_g == pytest.approx(eff.pair23.j**2 * eff.pair23.v_d, rel=1e-15)

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
            lo = min(eff.pair12.g, eff.pair23.g) - 1e-12
            hi = max(eff.pair12.g, eff.pair23.g) + 1e-12
            assert lo <= eff.g <= hi


def test_pairwise_effects_uses_right_group_sizes():
    p12, p23 = pairwise_effects(0.3, (10, 20, 40))
    assert (p12.n_lo, p12.n_hi) == (10, 20)
    assert (p23.n_lo, p23.n_hi) == (20, 40)
    assert p12.v_d == pytest.approx(cohens_d_variance(10, 20, 0.3), rel=1e-15)
