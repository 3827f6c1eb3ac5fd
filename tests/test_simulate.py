"""Simulation estimator: regression/ANOVA identities, oracles, goldens."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addmeta import simulate
from addmeta._rng import EFFECT_STUDY, SIM_DRAWS, derive_seed, substream
from addmeta.effects import AdditiveEffect, StudySummary, cohens_d_variance, crude_effect, hedges_j
from addmeta.io import read_study_summaries
from addmeta.simulate import (
    SimConfig,
    additive_fit_rows,
    additive_regression,
    draw_fits,
    sim_effect,
)

ZHH = StudySummary("ZHH-FE", (3.24, 2.44, 3.64), (2.11, 1.23, 2.42), (25, 24, 21))
SATIETY = StudySummary("SATIETY", (11.45, 12.16, 14.73), (8.29, 8.38, 9.63), (63, 63, 42))
EUFEST = StudySummary("EUFEST", (4.04, 5.35, 4.67), (5.11, 5.88, 6.44), (74, 40, 9))
DATA = Path(__file__).parent / "data"
DEGENERATE = "sample has zero variance in every group and no lack of fit"


def _literal_fit(groups):
    """Independent route: expand to individuals, fit with polyfit, build the
    ANOVA quantities from literal residual sums of squares."""
    y = np.concatenate(groups)
    x = np.concatenate([np.full(len(g), code) for g, code in zip(groups, (1.0, 2.0, 3.0))])
    slope, intercept = np.polyfit(x, y, 1)
    rss = float(((y - (intercept + slope * x)) ** 2).sum())
    tss = float(((y - y.mean()) ** 2).sum())
    ss_model = tss - rss
    n = len(y)
    f_stat = ss_model / (rss / (n - 2))
    return slope, ss_model, f_stat, rss, n


class TestAdditiveRegression:
    def test_slope_matches_literal_ols(self):
        rng = np.random.default_rng(303)
        for _ in range(25):
            groups = [rng.normal(rng.uniform(-4, 4), rng.uniform(0.5, 3), size=rng.integers(3, 40))
                      for _ in range(3)]
            beta, _, _ = additive_regression(groups)
            slope, *_ = _literal_fit(groups)
            assert beta == pytest.approx(slope, rel=1e-10, abs=1e-10)

    def test_anova_denominator_identity(self):
        # sqrt(MS_between / F) must equal the residual SD of the additive fit
        rng = np.random.default_rng(304)
        for _ in range(25):
            groups = [rng.normal(mu, 1.7, size=n) for mu, n in zip((4, 5.5, 9), (12, 19, 8))]
            _, sd, _ = additive_regression(groups)
            _, ss_model, f_stat, rss, n = _literal_fit(groups)
            assert sd == pytest.approx(math.sqrt(ss_model / f_stat), rel=1e-10)
            assert sd == pytest.approx(math.sqrt(rss / (n - 2)), rel=1e-10)

    def test_d_is_ratio(self):
        rng = np.random.default_rng(305)
        groups = [rng.normal(0, 1, size=20) for _ in range(3)]
        beta, sd, d = additive_regression(groups)
        assert d == beta / sd

    def test_degenerate_sample_raises(self):
        groups = [np.full(5, 2.0), np.full(5, 2.0), np.full(5, 2.0)]
        with pytest.raises(ValueError, match=f"^study1: {DEGENERATE}$"):
            additive_regression(groups)

    def test_constant_groups_on_a_line_are_fine(self):
        # zero within-group variance but nonzero lack of fit: sd > 0
        _, sd, d = additive_regression([np.full(5, 1.0), np.full(5, 2.5), np.full(5, 3.0)])
        assert sd > 0
        assert np.isfinite(d)


def _lstsq_fit(groups):
    """Slope and residual sd from least squares on the individual data."""
    y = np.concatenate(groups)
    x = np.concatenate([np.full(len(g), code) for g, code in zip(groups, (1.0, 2.0, 3.0))])
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return coef[1], math.sqrt(resid @ resid / (len(y) - 2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.tuples(*[st.integers(2, 400)] * 3),
    offset=st.floats(-1e4, 1e4),
    slope=st.floats(-1.0, 1.0),
    spreads=st.tuples(*[st.floats(0.1, 10.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_contrast_fit_matches_least_squares(n, offset, slope, spreads, seed):
    rng = np.random.default_rng(seed)
    groups = [offset + slope * code + rng.normal(0.0, spread, size=k)
              for code, spread, k in zip((1, 2, 3), spreads, n)]
    fit_beta, fit_sd, _ = additive_regression(groups)
    beta, sd = _lstsq_fit(groups)
    assert fit_sd == pytest.approx(sd, rel=1e-9)
    # a fitted slope near zero is a difference of large terms: compare it in units of sd too
    assert fit_beta == pytest.approx(beta, rel=1e-9, abs=1e-9 * sd)


@settings(max_examples=60, deadline=None)
@given(
    n=st.tuples(*[st.integers(2, 400)] * 3),
    studies=st.integers(1, 6),
    offset=st.floats(-1e4, 1e4),
    spread=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_stacked_row_is_its_own_fit_bit_for_bit(n, studies, offset, spread, seed):
    rng = np.random.default_rng(seed)
    blocks = [offset + code * rng.normal(0.0, 1.0, studies)[:, None]
              + rng.normal(0.0, spread, (studies, k)) for code, k in zip((1, 2, 3), n)]
    beta, sd, d = additive_fit_rows(blocks)
    for i in range(studies):
        assert (beta[i], sd[i], d[i]) == additive_regression([block[i] for block in blocks])


def _numpy_design(n):
    """N, slope weights and curvature scale as numpy 3-vectors compute them: the reference for ``_design``."""
    codes, contrast = np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 1.0])
    n = np.asarray(n, dtype=float)
    n_total = float(n.sum())
    centered = codes - float((n * codes).sum()) / n_total
    slope_weights = tuple((n * centered / float((n * centered**2).sum())).tolist())
    return n_total, slope_weights, 1.0 / float((contrast**2 / n).sum())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.tuples(*[st.integers(2, 10**9)] * 3))
def test_design_equals_the_numpy_formula_bit_for_bit(n):
    assert simulate._design(n) == _numpy_design(n)


@pytest.mark.parametrize("slope", [0.0, 1.5])
def test_one_degenerate_study_in_the_stack_raises(slope):
    # constant groups on a line: no within-group SSE and no lack of fit, so sd 0
    rng = np.random.default_rng(7)
    blocks = [rng.normal(code, 1.0, (4, k)) for code, k in zip((1, 2, 3), (10, 15, 5))]
    for code, block in zip((1, 2, 3), blocks):
        block[2] = 2.0 + slope * code
        block[3] = 2.0 + slope * code
    # the error names the first degenerate row, study 3 of 4
    with pytest.raises(ValueError, match=f"^study3: {DEGENERATE}$"):
        additive_fit_rows(blocks)


def draw_and_fit_once(summary, rng):
    """Reference sampler: draw every subject of one dataset and fit it."""
    groups = [rng.normal(summary.m[k], summary.sd[k], size=summary.n[k]) for k in range(3)]
    return additive_regression(groups)


class TestSimulateStudy:
    def test_null_effect_mean_d_near_zero(self):
        summary = StudySummary("null", (5, 5, 5), (1, 1, 1), (30, 30, 30))
        effect = sim_effect(summary, SimConfig(iterations=10_000, seed=2))
        assert abs(effect.d) < 0.01

    def test_golden_stats_replay(self):
        effect = sim_effect(ZHH, SimConfig(iterations=500, seed=99))
        assert effect.beta == pytest.approx(0.1671100279351119, rel=1e-12)
        assert effect.sd_beta == pytest.approx(2.023321415149666, rel=1e-12)
        assert effect.d == pytest.approx(0.08114770989995373, rel=1e-12)
        assert effect.d_se == pytest.approx(0.007262242072763482, rel=1e-12)

    def test_noise_free_limit_recovers_slope(self):
        summary = StudySummary("limit", (4, 5.5, 7), (1e-8, 1e-8, 1e-8), (20, 20, 20))
        effect = sim_effect(summary, SimConfig(iterations=100, seed=0))
        assert effect.beta == pytest.approx(1.5, abs=1e-3)

    def test_mc_convergence_rate(self):
        # doubling iterations should shrink the empirical SE of mean d by ~sqrt(2)
        summary = StudySummary("conv", (4, 5.5, 7), (2, 2, 2), (30, 30, 30))
        ses = [sim_effect(summary, SimConfig(iterations=n, seed=5)).d_se
               for n in (2500, 5000, 10_000)]
        assert 1.25 <= ses[0] / ses[1] <= 1.6
        assert 1.25 <= ses[1] / ses[2] <= 1.6


def noncentral_t_mean_d(beta, sigma, n):
    """Exact E[d] when the three group means lie on a line with common SD.

    Then d * sqrt(S_xx) follows a noncentral t with N - 2 degrees of
    freedom and noncentrality beta * sqrt(S_xx) / sigma.
    """
    codes = (1.0, 2.0, 3.0)
    n_total = sum(n)
    code_mean = sum(k * c for k, c in zip(n, codes)) / n_total
    s_xx = sum(k * (c - code_mean) ** 2 for k, c in zip(n, codes))
    nu = n_total - 2
    delta = beta * math.sqrt(s_xx) / sigma
    t_mean = delta * math.sqrt(nu / 2) * math.exp(math.lgamma((nu - 1) / 2) - math.lgamma(nu / 2))
    return t_mean / math.sqrt(s_xx)


def exact_limit(m, sd, n):
    """The simulation estimator's infinite-iteration mean of d and the per-iteration SD of d.

    The slope beta and the curvature c are jointly normal, and the SSE is an
    independent weighted chi-square with Laplace transform L(t).  Writing
    1/sqrt(x) and 1/x as Laplace integrals over t turns E[d] and E[d^2] into
    one-dimensional integrals, taken by a trapezoid rule in u = ln t on
    [-100, 40] at step 0.4.
    """
    m, sd, n = (np.asarray(x, dtype=float) for x in (m, sd, n))
    codes, h = np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 1.0])
    n_total = n.sum()
    centered = codes - (n @ codes) / n_total
    w, k, v = n * centered / (n @ centered**2), 1.0 / (h * h / n).sum(), sd * sd / n
    mu_b, mu_c, var_b, var_c = w @ m, h @ m, (w * w) @ v, (h * h) @ v
    b = (w * h) @ v / var_c  # cov(beta, c) / var(c)
    t = np.exp(np.linspace(-100.0, 40.0, 351))
    r = 1.0 + 2.0 * t * k * var_c
    laplace = np.exp(-(np.log1p(2.0 * t[:, None] * sd * sd) @ ((n - 1.0) / 2.0)))
    step = np.full(351, 0.4)
    step[[0, -1]] = 0.2
    # dt = t du; under the weight exp(-t k c^2), c is N(mu_c / r, var_c / r)
    weight = step * t * laplace * r**-0.5 * np.exp(-t * k * mu_c**2 / r)
    beta = mu_b - b * mu_c * (r - 1.0) / r
    e_d = math.sqrt((n_total - 2.0) / math.pi) * float(weight @ (t**-0.5 * beta))
    e_d2 = (n_total - 2.0) * float(weight @ (beta**2 + var_b - b * b * var_c + b * b * var_c / r))
    return e_d, math.sqrt(e_d2 - e_d * e_d)


class TestExactLimit:
    @pytest.mark.parametrize("n", [(10, 15, 5), (35, 45, 30), (300, 400, 240), (2, 2, 2)])
    def test_equals_the_noncentral_t_mean(self, n):
        e_d, _ = exact_limit((4.0, 5.5, 7.0), (2.0, 2.0, 2.0), n)
        assert e_d == pytest.approx(noncentral_t_mean_d(1.5, 2.0, n), rel=1e-10)

    # Table 2's simulation d's, published at 10,000 iterations to three decimals
    @pytest.mark.parametrize("summary, published", [(SATIETY, 0.180), (EUFEST, 0.136), (ZHH, 0.085)],
                             ids=lambda x: getattr(x, "study_id", x))
    def test_published_simulation_d_lies_within_3_ses_at_10000_iterations(self, summary, published):
        e_d, sd_d = exact_limit(summary.m, summary.sd, summary.n)
        assert abs(published - e_d) < 0.0005 + 3 * sd_d / math.sqrt(10_000)

    @pytest.mark.parametrize("summary", [SATIETY, EUFEST, ZHH], ids=lambda s: s.study_id)
    def test_sim_effect_lies_within_4_ses(self, summary):
        iterations = 200_000
        effect = sim_effect(summary, SimConfig(iterations=iterations, seed=3))
        e_d, sd_d = exact_limit(summary.m, summary.sd, summary.n)
        assert abs(effect.d - e_d) < 4 * effect.d_se
        assert effect.d_se * math.sqrt(iterations) == pytest.approx(sd_d, rel=0.01)


_oracle_means = st.tuples(*[st.floats(-20.0, 20.0)] * 3)
_oracle_sds = st.tuples(*[st.floats(0.5, 20.0)] * 3)
_oracle_sizes = st.tuples(*[st.integers(5, 400)] * 3)


# fixed examples: the first check is a 4-sigma Monte Carlo bound, so a fresh draw of 60 cases could fail by chance
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=_oracle_means.filter(lambda m: m[0] - 2.0 * m[1] + m[2] != 0.0),
    sd=_oracle_sds.filter(lambda sd: len(set(sd)) == 3),
    n=_oracle_sizes,
    seed=st.integers(0, 2**32 - 1),
)
def test_sim_effect_meets_the_exact_limit_off_the_line_and_with_unequal_sds(m, sd, n, seed):
    iterations = 20_000
    effect = sim_effect(StudySummary("s", m, sd, n), SimConfig(iterations=iterations, seed=seed))
    e_d, sd_d = exact_limit(m, sd, n)
    assert abs(effect.d - e_d) < 4 * effect.d_se
    assert effect.d_se * math.sqrt(iterations) == pytest.approx(sd_d, rel=0.05)


@settings(max_examples=200, deadline=None)
@given(m=_oracle_means, sd=_oracle_sds, n=_oracle_sizes)
def test_reversing_the_group_order_negates_d(m, sd, n):
    study = StudySummary("s", m, sd, n)
    flipped = StudySummary("s", m[::-1], sd[::-1], n[::-1])
    assert exact_limit(flipped.m, flipped.sd, flipped.n)[0] == pytest.approx(-exact_limit(m, sd, n)[0], rel=1e-9)
    forward, backward = (crude_effect(s, standardizer="pair-mean") for s in (study, flipped))
    assert (backward.d, backward.g, backward.v_g) == (-forward.d, -forward.g, forward.v_g)
    forward, backward = (crude_effect(s, standardizer="pooled") for s in (study, flipped))
    assert backward.d == pytest.approx(-forward.d, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
    sd=st.tuples(*[st.floats(0.01, 20.0)] * 3),
    n=st.tuples(*[st.integers(2, 300)] * 3),
    iterations=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_iteration_reductions_equal_numpy_mean_and_std(m, sd, n, iterations, seed):
    summary, config = StudySummary("s", m, sd, n), SimConfig(iterations=iterations, seed=seed)
    rng = substream(derive_seed(seed, EFFECT_STUDY, int.from_bytes(b"\x01s", "big")), SIM_DRAWS)
    betas, sds, ds = draw_fits(m, sd, n, iterations, rng)
    effect = sim_effect(summary, config)
    assert effect.beta == float(betas.mean())
    assert effect.sd_beta == float(sds.mean())
    assert effect.d == float(ds.mean())
    assert effect.d_se == float(ds.std(ddof=1)) / math.sqrt(iterations)


class TestNoncentralTOracle:
    @pytest.mark.parametrize("n", [(10, 15, 5), (35, 45, 30), (300, 400, 240)])
    def test_mean_d_matches_exact_mean(self, n):
        summary = StudySummary("oracle", (4.0, 5.5, 7.0), (2.0, 2.0, 2.0), n)
        effect = sim_effect(summary, SimConfig(iterations=50_000, seed=61))
        expected = noncentral_t_mean_d(1.5, 2.0, n)
        assert abs(effect.d - expected) < 4 * effect.d_se


def _moments(x):
    """Mean and SD of ``x`` with their Monte Carlo standard errors."""
    n = len(x)
    mean, sd = float(x.mean()), float(x.std(ddof=1))
    m4 = float(((x - mean) ** 4).mean())
    # delta method: se(sd) = se(var) / (2 sd), se(var) = sqrt((m4 - var^2) / n)
    return mean, sd / math.sqrt(n), sd, math.sqrt(max(m4 - sd**4, 0.0) / n) / (2 * sd)


class TestReferenceEquivalence:
    """The sufficient-statistic sampler against drawing every subject."""

    @pytest.mark.parametrize("summary", [
        StudySummary("tiny", (3.0, 5.5, 6.0), (1.0, 2.5, 4.0), (3, 5, 2)),
        StudySummary("het", (3.0, 5.5, 6.0), (1.0, 2.5, 4.0), (12, 20, 9)),
        StudySummary("het-large", (2.0, 2.4, 4.1), (3.0, 1.5, 2.2), (60, 45, 30)),
        ZHH,
    ], ids=lambda s: s.study_id)
    def test_per_draw_moments_agree(self, summary):
        draws = 4000
        rng = np.random.default_rng(2718)
        reference = [draw_and_fit_once(summary, rng) for _ in range(draws)]
        fast = draw_fits(summary.m, summary.sd, summary.n, draws, substream(2719, SIM_DRAWS))
        for name, ref, new in zip(("beta", "sd", "d"), zip(*reference), fast):
            ref_mean, ref_mean_se, ref_sd, ref_sd_se = _moments(np.array(ref))
            new_mean, new_mean_se, new_sd, new_sd_se = _moments(new)
            assert abs(ref_mean - new_mean) < 4 * math.hypot(ref_mean_se, new_mean_se), name
            assert abs(ref_sd - new_sd) < 4 * math.hypot(ref_sd_se, new_sd_se), name


def _contrast_moments(summary):
    """Mean vector and covariance of (slope, curvature), the SSE mean, and
    the lack-of-fit scale, from the per-subject contrast matrix."""
    n = np.array(summary.n)
    group = np.repeat(np.arange(3), n)
    x = np.array([1.0, 2.0, 3.0])[group]
    contrasts = np.stack([(x - x.mean()) / ((x - x.mean()) ** 2).sum(),
                          np.array([1.0, -2.0, 1.0])[group] / n[group]])
    mean = contrasts @ np.array(summary.m)[group]
    cov = contrasts * np.array(summary.sd)[group] ** 2 @ contrasts.T
    sse_mean = float(((n - 1) * np.array(summary.sd) ** 2).sum())
    return mean, cov, sse_mean, 1.0 / float(contrasts[1] @ contrasts[1])


def test_draws_consume_the_normal_and_chisquare_stream():
    # the same quantities rebuilt the long way from a (2, it) normal block and three gamma runs
    summary, config = SATIETY, SimConfig(iterations=3000, seed=404)
    n, sd = np.array(summary.n, dtype=float), np.array(summary.sd)
    rng = substream(config.seed, SIM_DRAWS)
    z = rng.standard_normal((2, config.iterations))
    sse = sum(rng.gamma((n[k] - 1) / 2, 2 * sd[k] ** 2, config.iterations) for k in range(3))
    mean, cov, _, lack_of_fit = _contrast_moments(summary)
    beta, curvature = mean[:, None] + np.linalg.cholesky(cov) @ z
    ref_sd = np.sqrt((sse + lack_of_fit * curvature**2) / (n.sum() - 2.0))

    betas, sds, ds = draw_fits(summary.m, summary.sd, summary.n, config.iterations,
                               substream(config.seed, SIM_DRAWS))
    np.testing.assert_allclose(betas, beta, rtol=0, atol=1e-12 * (abs(mean[0]) + math.sqrt(cov[0, 0])))
    np.testing.assert_allclose(sds, ref_sd, rtol=1e-12)
    np.testing.assert_array_equal(ds, betas / sds)


@pytest.mark.parametrize("summary", [
    StudySummary("tiny", (3.0, 5.5, 6.0), (1.0, 2.5, 4.0), (3, 5, 2)),
    StudySummary("het", (3.0, 5.5, 6.0), (1.0, 2.5, 4.0), (12, 20, 9)),
    StudySummary("bent", (6.0, 2.0, 5.0), (0.5, 3.0, 1.5), (25, 10, 30)),
    StudySummary("het-large", (2.0, 2.4, 4.1), (3.0, 1.5, 2.2), (60, 45, 30)),
], ids=lambda s: s.study_id)
def test_draw_moments_match_exact_moments(summary):
    # E[beta], Var[beta], E[sd^2] and E[beta sd^2] in closed form: SSE is independent
    # of (beta, c), E[c^2] = mu_c^2 + var_c and E[beta c^2] = mu_b E[c^2] + 2 mu_c cov
    betas, sds, _ = draw_fits(summary.m, summary.sd, summary.n, 400_000, substream(515, SIM_DRAWS))
    (mu_b, mu_c), ((var_b, cov), (_, var_c)), sse_mean, lack_of_fit = _contrast_moments(summary)
    dof = sum(summary.n) - 2
    c2 = mu_c**2 + var_c
    var = sds * sds
    beta_mean, beta_mean_se, beta_sd, beta_sd_se = _moments(betas)
    checks = [
        ("E[beta]", beta_mean, beta_mean_se, mu_b),
        ("Var[beta]", beta_sd**2, 2 * beta_sd * beta_sd_se, var_b),
        ("E[sd^2]", *_moments(var)[:2], (sse_mean + lack_of_fit * c2) / dof),
        ("E[beta sd^2]", *_moments(betas * var)[:2],
         (mu_b * sse_mean + lack_of_fit * (mu_b * c2 + 2 * mu_c * cov)) / dof),
    ]
    for name, got, se, want in checks:
        assert abs(got - want) < 4 * se, (name, (got - want) / se)


@pytest.mark.parametrize("m, sd, n", [
    ((1e308, -1e308, 1e308), (1.0, 1.0, 1.0), (10, 15, 5)),  # the means' curvature overflows
    ((4.0, 5.5, 7.0), (1.0, 1e154, 1.0), (10, 2, 5)),  # 4 sd2^2 / n2 overflows
])
def test_moments_out_of_float_range_raise(m, sd, n):
    with pytest.raises(ValueError, match="^s: the simulated fits leave the floating-point range"):
        sim_effect(StudySummary("s", m, sd, n), SimConfig(iterations=10, seed=1))


class ZeroDraws:
    """A stand-in generator whose normal and gamma draws are all 0.

    With collinear means every regenerated fit then has residual SD 0 and
    the slope of the means.
    """

    def standard_normal(self, size):
        return np.zeros(size)

    def gamma(self, shape, scale, size):
        return np.zeros(size)


def test_zero_simulated_sd_is_a_range_error_naming_the_study(monkeypatch):
    monkeypatch.setattr(simulate, "substream", lambda *keys: ZeroDraws())
    with pytest.raises(ValueError, match=r"^line: the simulated fits leave the floating-point range \(divide"):
        sim_effect(StudySummary("line", (1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (10, 15, 5)),
                   SimConfig(iterations=10, seed=1))


class TestSimEffect:
    def test_zhh_matches_published_columns(self):
        eff = sim_effect(ZHH, SimConfig(iterations=10_000, seed=8))
        assert eff.method == "simulation"
        assert eff.beta == pytest.approx(0.168, abs=0.02)
        assert eff.sd_beta == pytest.approx(2.009, abs=0.02)
        assert eff.d == pytest.approx(0.085, abs=0.02)

    def test_flat_means_d_near_zero(self):
        summary = StudySummary("flat", (5, 5, 5), (2, 2, 2), (40, 40, 40))
        eff = sim_effect(summary, SimConfig(iterations=10_000, seed=3))
        assert abs(eff.d) < 0.01

    def test_mean_d_close_to_ratio_of_means(self):
        eff = sim_effect(SATIETY, SimConfig(iterations=4000, seed=12))
        assert eff.d == pytest.approx(eff.beta / eff.sd_beta, abs=0.02)
        assert eff.d != eff.beta / eff.sd_beta  # iteration averaging, not a ratio

    def test_pairwise_machinery_applied_to_mean_d(self):
        eff = sim_effect(ZHH, SimConfig(iterations=200, seed=4))
        # both pairs give Hedges' J*d with variance J^2 * v_d from the one mean d
        (g12, v12), (g23, v23) = [
            (hedges_j(a, b) * eff.d, hedges_j(a, b) ** 2 * cohens_d_variance(a, b, eff.d))
            for a, b in ((ZHH.n[0], ZHH.n[1]), (ZHH.n[1], ZHH.n[2]))
        ]
        assert eff.g == pytest.approx((g12 / v12 + g23 / v23) / (1 / v12 + 1 / v23), rel=1e-12)
        assert eff.v_g == pytest.approx(1 / (1 / v12 + 1 / v23), rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(iterations=0)
        # one draw has no Monte Carlo SE for d_se
        with pytest.raises(ValueError, match="^iterations must be an integer >= 2, got 1$"):
            SimConfig(iterations=1)

    @pytest.mark.parametrize("field, value, message", [
        ("iterations", 2.5, "iterations must be an integer >= 2, got 2.5"),
        ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
    ], ids=["float-iterations", "float-seed", "negative-seed"])
    def test_config_refuses_a_count_or_seed_it_cannot_run(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimConfig(**{field: value})

    def test_rows_equal_the_pinned_cli_output(self):
        # effect --method sim --iterations 500 --seed 7 --precision 17 on the Table-2 cohorts
        config = SimConfig(iterations=500, seed=7)
        with open(DATA / "table2_effect_sim.csv", newline="") as handle:
            pinned = list(csv.DictReader(handle))
        for summary, row in zip(read_study_summaries(DATA / "table2_cohorts.csv"), pinned, strict=True):
            effect = sim_effect(summary, config)
            assert row["study_id"] == effect.study_id
            for name in ("beta", "sd_beta", "d", "g", "v_g", "d_se"):
                assert row[name] == format(getattr(effect, name), ".17g"), (effect.study_id, name)

    def test_studies_that_differ_only_in_id_draw_apart(self):
        config = SimConfig(iterations=200, seed=3)
        a, b = (sim_effect(StudySummary(study_id, ZHH.m, ZHH.sd, ZHH.n), config) for study_id in ("A", "B"))
        assert a.d != b.d

    def test_a_study_draws_the_same_alone_or_in_a_list(self):
        config = SimConfig(iterations=200, seed=3)
        in_list = [sim_effect(s, config) for s in (SATIETY, ZHH)]
        assert in_list[1] == sim_effect(ZHH, config)

    def test_config_takes_numpy_integers_and_seeds_above_2_to_the_53(self):
        numpy_ints = SimConfig(iterations=np.int64(50), seed=np.uint64(2**63 + 1))
        assert sim_effect(ZHH, numpy_ints) == sim_effect(ZHH, SimConfig(iterations=50, seed=2**63 + 1))


def _log_uniform(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


_magnitude = _log_uniform(-300, 300)
_signed = st.tuples(st.sampled_from([-1.0, 1.0]), _magnitude).map(lambda t: t[0] * t[1])


def _finite_or_refused(estimate):
    """The effect from ``estimate()`` has only finite fields, unless it raised ValueError."""
    try:
        effect = estimate()
    except ValueError:
        return
    assert isinstance(effect, AdditiveEffect)
    fields = (effect.beta, effect.sd_beta, effect.d, effect.g, effect.v_g)
    assert all(math.isfinite(x) for x in fields + ((effect.d_se,) if effect.d_se is not None else ()))


@settings(max_examples=300, deadline=None)
@given(
    m=st.tuples(_signed, _signed, _signed),
    sd=st.tuples(_magnitude, _magnitude, _magnitude),
    n=st.tuples(*[_log_uniform(math.log10(2), 9).map(round)] * 3),
    iterations=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_extreme_magnitudes_give_finite_effects_or_value_error(m, sd, n, iterations, seed):
    try:
        summary = StudySummary("extreme", m, sd, n)
    except ValueError:
        return
    for standardizer in ("pair-mean", "pooled"):
        _finite_or_refused(lambda: crude_effect(summary, standardizer=standardizer))
    _finite_or_refused(lambda: sim_effect(summary, SimConfig(iterations=iterations, seed=seed)))


@settings(max_examples=200, deadline=None)
@given(
    base=st.floats(-50.0, 50.0),
    step=st.floats(0.5, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    bend=st.floats(-1.0, 1.0),
    sd=st.tuples(*[st.floats(0.5, 20.0)] * 3),
    n=st.tuples(*[st.integers(5, 400)] * 3),
    a=st.floats(-100.0, 100.0),
    c=st.builds(lambda mantissa, k: mantissa * 2.0**k, st.sampled_from([1.0, 1.37]), st.integers(-6, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_d_is_unchanged_by_a_change_of_location_and_scale(base, step, sign, bend, sd, n, a, c, seed):
    # the slope is at least half the largest SD, so d stays far enough from 0 for a relative tolerance
    width = max(sd)
    slope = sign * step * width
    m = (base, base + slope + bend * width, base + 2.0 * slope)
    study = StudySummary("s", m, sd, n)
    moved = StudySummary("s", [a + c * x for x in m], [c * s for s in sd], n)
    config = SimConfig(iterations=500, seed=seed)
    for estimate in (lambda s: crude_effect(s, standardizer="pair-mean"),
                     lambda s: crude_effect(s, standardizer="pooled"),
                     lambda s: sim_effect(s, config)):
        assert math.isclose(estimate(moved).d, estimate(study).d, rel_tol=1e-10)
