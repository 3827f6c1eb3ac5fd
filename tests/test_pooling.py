"""DerSimonian-Laird pooling."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addmeta.pooling import pool_random_effects

effects_lists = st.lists(
    st.tuples(st.floats(-2, 2), st.floats(0.001, 2)),
    min_size=1,
    max_size=12,
)


def test_single_study_passthrough():
    result = pool_random_effects([(0.5, 0.04)])
    assert result.g_wm == 0.5
    assert result.tau2 == 0.0
    assert result.v_wm == 0.04
    assert result.k == 1
    assert result.ci_lo == pytest.approx(0.5 - 1.96 * 0.2)


def test_two_identical_studies():
    result = pool_random_effects([(0.3, 0.01), (0.3, 0.01)])
    assert result.g_wm == pytest.approx(0.3, rel=1e-14)
    assert result.tau2 == 0.0
    assert result.v_wm == pytest.approx(0.005, rel=1e-14)


def test_hand_computed_dl_case():
    # w = 100 each; Q = 8; C = 200 - 20000/200 = 100; tau2 = 7/100
    result = pool_random_effects([(0.1, 0.01), (0.5, 0.01)])
    assert result.tau2 == pytest.approx(0.07, rel=1e-12)
    assert result.g_wm == pytest.approx(0.3, rel=1e-12)
    assert result.v_wm == pytest.approx(0.04, rel=1e-12)
    assert result.ci_lo == pytest.approx(0.3 - 1.96 * 0.2, rel=1e-12)
    assert result.ci_hi == pytest.approx(0.3 + 1.96 * 0.2, rel=1e-12)


def test_tau2_truncated_at_zero_when_q_small():
    # nearly identical effects with large variances force Q < k-1
    result = pool_random_effects([(0.300, 1.0), (0.301, 1.0), (0.299, 1.0)])
    w = 1.0
    g_fe = 0.3
    q = sum((g - g_fe) ** 2 for g in (0.300, 0.301, 0.299))
    assert q < 2
    assert result.tau2 == 0.0


def test_hand_computed_q_and_i2():
    # w = 100 each and a fixed-effect mean of 0.3: Q = 100 * (0.09 + 0 + 0.09) = 18
    # on 2 degrees of freedom, so I^2 = (18 - 2) / 18 = 8/9
    result = pool_random_effects([(0.0, 0.01), (0.3, 0.01), (0.6, 0.01)])
    assert result.q == pytest.approx(18.0, rel=1e-12)
    assert result.i2 == pytest.approx(8 / 9, rel=1e-12)


def test_i2_is_zero_when_q_is_below_its_degrees_of_freedom():
    # Q = 100 * (0.01^2 + 0 + 0.01^2) = 0.02 < 2
    result = pool_random_effects([(0.10, 0.01), (0.11, 0.01), (0.12, 0.01)])
    assert result.q == pytest.approx(0.02, rel=1e-9)
    assert result.i2 == 0.0


def test_single_study_and_identical_studies_have_no_heterogeneity():
    single = pool_random_effects([(0.5, 0.04)])
    assert (single.q, single.i2) == (0.0, 0.0)
    identical = pool_random_effects([(0.3, 0.01), (0.3, 0.01)])
    assert (identical.q, identical.i2) == (0.0, 0.0)


def test_empty_and_bad_variance_errors():
    with pytest.raises(ValueError, match="empty"):
        pool_random_effects([])
    with pytest.raises(ValueError, match="variances"):
        pool_random_effects([(0.1, 0.0)])


@given(effects_lists)
@settings(max_examples=150, deadline=None)
def test_permutation_invariance(effects):
    base = pool_random_effects(effects)
    shuffled = list(effects)
    random.Random(0).shuffle(shuffled)
    other = pool_random_effects(shuffled)
    assert other.g_wm == pytest.approx(base.g_wm, rel=1e-9, abs=1e-12)
    assert other.tau2 == pytest.approx(base.tau2, rel=1e-9, abs=1e-12)
    assert other.v_wm == pytest.approx(base.v_wm, rel=1e-9, abs=1e-12)


@given(effects_lists)
@settings(max_examples=150, deadline=None)
def test_pooled_estimate_within_range(effects):
    result = pool_random_effects(effects)
    gs = [g for g, _ in effects]
    assert min(gs) - 1e-9 <= result.g_wm <= max(gs) + 1e-9
    assert result.tau2 >= 0.0
    assert result.v_wm > 0.0
    assert result.ci_lo < result.ci_hi
    assert math.fsum(result.weights) == pytest.approx(1.0, rel=1e-12)
    assert result.q >= 0.0
    assert 0.0 <= result.i2 < 1.0


def test_homogeneous_inputs_give_arithmetic_mean():
    gs = [0.12, 0.34, 0.56, 0.7]
    result = pool_random_effects([(g, 0.05) for g in gs])
    # equal variances: tau2 shifts every weight equally, so the mean survives
    assert result.g_wm == pytest.approx(sum(gs) / len(gs), rel=1e-12)


@given(st.lists(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    min_size=1, max_size=8,
))
@settings(max_examples=300, deadline=None)
def test_extreme_inputs_pool_to_finite_fields_or_value_error(effects):
    try:
        result = pool_random_effects(effects)
    except ValueError:
        return
    fields = (result.g_wm, result.v_wm, result.tau2, result.ci_lo, result.ci_hi, result.q, result.i2)
    assert all(math.isfinite(x) for x in fields + result.weights)


def test_single_study_with_an_overflowing_weight_is_refused():
    # 1/v_g overflows: refused for one study as it is beside others
    with pytest.raises(ValueError, match="no finite pooled estimate of 1 effects"):
        pool_random_effects([(0.5, 1e-320)])
    with pytest.raises(ValueError, match="no finite pooled estimate of 2 effects"):
        pool_random_effects([(0.5, 1e-320), (0.3, 0.1)])


def test_tau2_needs_no_denominator_when_q_is_within_its_degrees_of_freedom():
    # c = sum_w - sum(w^2)/sum_w cancels to 0 here, but Q = 1.25e-10 < k - 1 puts tau2 at 0 anyway
    result = pool_random_effects([(0.0, 1e-10), (1.0, 1e10), (0.5, 1e10)])
    assert result.tau2 == 0.0
    assert result.q == pytest.approx(1.25e-10, rel=1e-12)
    assert result.g_wm == pytest.approx(1.5e-20, rel=1e-12)
    assert result.v_wm == pytest.approx(1e-10, rel=1e-12)
