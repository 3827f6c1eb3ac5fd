"""Simulation estimator: regression/ANOVA identities, oracles, goldens."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addmeta._rng import SIM_DRAWS, substream
from addmeta.effects import StudySummary, cohens_d_variance, hedges_j
from addmeta.simulate import (
    DegenerateSampleError,
    SimConfig,
    _draws,
    additive_fit_rows,
    additive_regression,
    sim_effect,
    simulate_study,
)

ZHH = StudySummary("ZHH-FE", (3.24, 2.44, 3.64), (2.11, 1.23, 2.42), (25, 24, 21))
SATIETY = StudySummary("SATIETY", (11.45, 12.16, 14.73), (8.29, 8.38, 9.63), (63, 63, 42))


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
            draw = additive_regression(groups)
            slope, *_ = _literal_fit(groups)
            assert draw.beta == pytest.approx(slope, rel=1e-10, abs=1e-10)

    def test_anova_denominator_identity(self):
        # sqrt(MS_between / F) must equal the residual SD of the additive fit
        rng = np.random.default_rng(304)
        for _ in range(25):
            groups = [rng.normal(mu, 1.7, size=n) for mu, n in zip((4, 5.5, 9), (12, 19, 8))]
            draw = additive_regression(groups)
            _, ss_model, f_stat, rss, n = _literal_fit(groups)
            assert draw.sd == pytest.approx(math.sqrt(ss_model / f_stat), rel=1e-10)
            assert draw.sd == pytest.approx(math.sqrt(rss / (n - 2)), rel=1e-10)

    def test_d_is_ratio(self):
        rng = np.random.default_rng(305)
        groups = [rng.normal(0, 1, size=20) for _ in range(3)]
        draw = additive_regression(groups)
        assert draw.d == draw.beta / draw.sd

    def test_degenerate_sample_raises(self):
        groups = [np.full(5, 2.0), np.full(5, 2.0), np.full(5, 2.0)]
        with pytest.raises(DegenerateSampleError):
            additive_regression(groups)

    def test_constant_groups_on_a_line_are_fine(self):
        # zero within-group variance but nonzero lack of fit: sd > 0
        draw = additive_regression([np.full(5, 1.0), np.full(5, 2.5), np.full(5, 3.0)])
        assert draw.sd > 0
        assert np.isfinite(draw.d)


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
    draw = additive_regression(groups)
    beta, sd = _lstsq_fit(groups)
    assert draw.sd == pytest.approx(sd, rel=1e-9)
    # a fitted slope near zero is a difference of large terms: compare it in units of sd too
    assert draw.beta == pytest.approx(beta, rel=1e-9, abs=1e-9 * sd)


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
        draw = additive_regression([block[i] for block in blocks])
        assert (beta[i], sd[i], d[i]) == (draw.beta, draw.sd, draw.d)


@pytest.mark.parametrize("slope", [0.0, 1.5])
def test_one_degenerate_study_in_the_stack_raises(slope):
    # constant groups on a line: no within-group SSE and no lack of fit, so sd 0
    rng = np.random.default_rng(7)
    blocks = [rng.normal(code, 1.0, (4, k)) for code, k in zip((1, 2, 3), (10, 15, 5))]
    for code, block in zip((1, 2, 3), blocks):
        block[2] = 2.0 + slope * code
    with pytest.raises(DegenerateSampleError):
        additive_fit_rows(blocks)


def simulate_study_once(summary, rng):
    """Reference sampler: draw every subject of one dataset and fit it."""
    groups = [rng.normal(summary.m[k], summary.sd[k], size=summary.n[k]) for k in range(3)]
    return additive_regression(groups)


class TestSimulateStudy:
    def test_null_effect_mean_d_near_zero(self):
        summary = StudySummary("null", (5, 5, 5), (1, 1, 1), (30, 30, 30))
        stats = simulate_study(summary, SimConfig(iterations=10_000, seed=2))
        assert abs(stats.d_mean) < 0.01

    def test_golden_stats_replay(self):
        stats = simulate_study(ZHH, SimConfig(iterations=500, seed=99))
        assert stats.beta_mean == pytest.approx(0.13593338259620433, rel=1e-12)
        assert stats.sd_beta_mean == pytest.approx(2.016476851558082, rel=1e-12)
        assert stats.d_mean == pytest.approx(0.06784171866192278, rel=1e-12)
        assert stats.d_se == pytest.approx(0.00789229244491148, rel=1e-12)

    def test_noise_free_limit_recovers_slope(self):
        summary = StudySummary("limit", (4, 5.5, 7), (1e-8, 1e-8, 1e-8), (20, 20, 20))
        stats = simulate_study(summary, SimConfig(iterations=100, seed=0))
        assert stats.beta_mean == pytest.approx(1.5, abs=1e-3)

    def test_mc_convergence_rate(self):
        # doubling iterations should shrink the empirical SE of mean d by ~sqrt(2)
        summary = StudySummary("conv", (4, 5.5, 7), (2, 2, 2), (30, 30, 30))
        ses = [simulate_study(summary, SimConfig(iterations=n, seed=5)).d_se
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
    betas, sds, ds = _draws(summary, config)
    stats = simulate_study(summary, config)
    assert stats.beta_mean == float(betas.mean())
    assert stats.sd_beta_mean == float(sds.mean())
    assert stats.d_mean == float(ds.mean())
    assert stats.d_se == float(ds.std(ddof=1)) / math.sqrt(iterations)


class TestNoncentralTOracle:
    @pytest.mark.parametrize("n", [(10, 15, 5), (35, 45, 30), (300, 400, 240)])
    def test_mean_d_matches_exact_mean(self, n):
        summary = StudySummary("oracle", (4.0, 5.5, 7.0), (2.0, 2.0, 2.0), n)
        stats = simulate_study(summary, SimConfig(iterations=50_000, seed=61))
        expected = noncentral_t_mean_d(1.5, 2.0, n)
        assert abs(stats.d_mean - expected) < 4 * stats.d_se


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
        reference = [simulate_study_once(summary, rng) for _ in range(draws)]
        fast = _draws(summary, SimConfig(iterations=draws, seed=2719))
        for name, ref, new in zip(("beta", "sd", "d"), zip(*((r.beta, r.sd, r.d) for r in reference)), fast):
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

    betas, sds, ds = _draws(summary, config)
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
    betas, sds, _ = _draws(summary, SimConfig(iterations=400_000, seed=515))
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
        with pytest.raises(ValueError, match="iterations must be >= 2 for a Monte Carlo SE"):
            SimConfig(iterations=1)
