"""Mixture densities, parameter perturbation, and the bias-study harness."""

import math

import numpy as np
import pytest

from addmeta import bias_study
from addmeta._rng import substream
from addmeta.bias_study import (
    DENSITIES,
    N_TRIPLETS,
    PERTURB_SD,
    Scenario,
    _replicate,
    perturb_study_params,
    run_scenario,
    sample_standardized,
)
from addmeta.effects import crude_effect
from addmeta.pooling import pool_random_effects
from addmeta.simulate import DegenerateSampleError

# a fixed stream key per density: str hashes are salted per process
DENSITY_KEYS = {"f1": 1, "f2": 2, "f3": 3, "f4": 4}


class TestDensities:
    def test_catalogue(self):
        assert set(DENSITIES) == {"f1", "f2", "f3", "f4"}
        assert DENSITIES["f1"].analytic_mean == 0.0
        assert DENSITIES["f1"].analytic_var == 1.0
        assert len(DENSITIES["f2"].components) == 8

    def test_component_weights_sum_to_one(self):
        for dens in DENSITIES.values():
            assert math.fsum(c[0] for c in dens.components) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
    def test_analytic_moments_match_million_draw_empirical(self, fid):
        dens = DENSITIES[fid]
        rng = substream(555, DENSITY_KEYS[fid])
        x = dens.sample(10**6, rng)
        n = len(x)
        se_mean = x.std() / math.sqrt(n)
        assert abs(float(x.mean()) - dens.analytic_mean) < 3 * se_mean
        centered = x - x.mean()
        m2 = float((centered**2).mean())
        m4 = float((centered**4).mean())
        se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
        assert abs(m2 - dens.analytic_var) < 3 * se_var

    @pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
    def test_analytic_moments_match_quadrature(self, fid):
        # trapezoid rule on a grid far finer than the narrowest component (sd 0.0585)
        dens = DENSITIES[fid]
        x, step = np.linspace(-20.0, 20.0, 400_001, retstep=True)
        pdf = sum(w * np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
                  for w, mu, sigma in dens.components)

        def integral(y):
            return float((y[1:] + y[:-1]).sum()) * step / 2

        assert integral(pdf) == pytest.approx(1.0, abs=1e-12)
        mean = integral(x * pdf)
        assert dens.analytic_mean == pytest.approx(mean, abs=1e-12)
        assert dens.analytic_var == pytest.approx(integral((x - mean) ** 2 * pdf), rel=1e-12)

    @pytest.mark.parametrize("fid", ["f2", "f3", "f4"])
    @pytest.mark.parametrize("n", [1, 5, 15, 400])
    def test_sample_matches_rng_choice_stream(self, fid, n):
        dens = DENSITIES[fid]
        rng = substream(31, DENSITY_KEYS[fid])
        w = np.array([c[0] for c in dens.components])
        idx = rng.choice(len(w), size=n, p=w)
        mu, sigma = (np.array([c[i] for c in dens.components]) for i in (1, 2))
        reference = rng.standard_normal(n) * sigma[idx] + mu[idx]
        np.testing.assert_array_equal(dens.sample(n, substream(31, DENSITY_KEYS[fid])), reference)

    def test_skewed_mixture_moment_formula(self):
        # independent arithmetic for the eight-component mixture
        l = np.arange(8)
        mu = 3 * ((2 / 3) ** l - 1)
        var = np.mean((2 / 3) ** (2 * l) + mu**2) - np.mean(mu) ** 2
        assert DENSITIES["f2"].analytic_mean == pytest.approx(float(np.mean(mu)), rel=1e-12)
        assert DENSITIES["f2"].analytic_var == pytest.approx(float(var), rel=1e-12)


class TestSampleStandardized:
    def test_f1_identity(self):
        raw = DENSITIES["f1"].sample(1000, substream(9, 9))
        std = sample_standardized(DENSITIES["f1"], 1000, 0.0, 1.0, substream(9, 9))
        assert np.array_equal(raw, std)

    @pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
    def test_moments_within_four_over_sqrt_n(self, fid):
        n = 10**5
        target_mean, target_sd = 2.5, 3.0
        x = sample_standardized(DENSITIES[fid], n, target_mean, target_sd, substream(60, DENSITY_KEYS[fid]))
        bound = 4.0 * target_sd / math.sqrt(n)
        assert abs(float(x.mean()) - target_mean) < bound
        assert abs(float(x.std(ddof=1)) - target_sd) < bound

    def test_kurtotic_large_n_hits_targets(self):
        x = sample_standardized(DENSITIES["f4"], 10**6, 4.0, 5.0, substream(61))
        assert float(x.mean()) == pytest.approx(4.0, abs=0.02)
        assert float(x.std(ddof=1)) == pytest.approx(5.0, abs=0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_standardized(DENSITIES["f1"], 0, 0, 1, substream(1))
        with pytest.raises(ValueError):
            sample_standardized(DENSITIES["f1"], 5, 0, 0, substream(1))


class _FakeRng:
    """Feeds predetermined (3, L) blocks to perturb_study_params, rows as groups."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def normal(self, loc, scale, size):
        out = np.asarray(self.blocks.pop(0), dtype=float).copy()
        assert out.shape == size
        return out


def _columns(params):
    """Per-study (mean triplet, SD triplet) tuples of perturb_study_params' (3, L) arrays."""
    means, sds = params
    return [(tuple(m), tuple(sd)) for m, sd in zip(means.T.tolist(), sds.T.tolist())]


class TestPerturbStudyParams:
    def test_draws_match_anchor_moments(self):
        anchors, n = (40.0, 55.0, 90.0), 100_000
        means, sds = perturb_study_params(anchors, 50.0, n, substream(3))
        assert means.shape == sds.shape == (3, n)
        # anchors sit 20 or more PERTURB_SD above 0, so no draw is truncated
        for row, anchor in [*zip(means, anchors), *zip(sds, [50.0] * 3)]:
            spread = row.std(ddof=1)
            assert abs(row.mean() - anchor) < 4 * PERTURB_SD / math.sqrt(n)
            assert abs(spread - PERTURB_SD) < 4 * PERTURB_SD / math.sqrt(2 * (n - 1))

    def test_negative_mean_replaced_by_first_anchor(self):
        fake = _FakeRng([
            [[3.0, 3.5], [5.0, 5.2], [-1.0, 8.8]],   # group means; one negative in group 3
            [[1.0, 1.1], [0.9, 1.2], [1.3, 0.8]],
        ])
        params = _columns(perturb_study_params((4, 5.5, 9), 1.0, 2, fake))
        assert params[0][0] == (3.0, 5.0, 4.0)  # -1 replaced by mean_vec[0]
        assert params[1][0] == (3.5, 5.2, 8.8)

    def test_per_group_truncation_uses_own_anchor(self):
        fake = _FakeRng([
            [[-1.0], [-1.0], [-1.0]],
            [[1.0], [1.0], [1.0]],
        ])
        params = _columns(perturb_study_params((4, 5.5, 9), 1.0, 1, fake, truncation="per-group"))
        assert params[0][0] == (4.0, 5.5, 9.0)

    def test_nonpositive_sd_replaced_by_sigma_ws(self):
        fake = _FakeRng([
            [[4.0], [5.5], [9.0]],
            [[-0.2], [0.0], [2.0]],
        ])
        params = _columns(perturb_study_params((4, 5.5, 9), 1.5, 1, fake))
        assert params[0][1] == (1.5, 1.5, 2.0)

    def test_golden_replay(self):
        params = _columns(perturb_study_params((4, 5.5, 9), 1.0, 10, substream(314, 1)))
        m0, sd0 = params[0]
        assert m0 == pytest.approx(
            (4.5557409961603605, 5.862986763548782, 6.814602627164284), rel=1e-12
        )
        assert sd0 == pytest.approx(
            (1.5065889424148071, 2.8480494883204535, 4.941400697339425), rel=1e-12
        )

    def test_rejects_zero_studies(self):
        with pytest.raises(ValueError):
            perturb_study_params((4, 5.5, 9), 1.0, 0, substream(1))


class TestScenarioValidation:
    def test_grid_memberships_enforced(self):
        good = dict(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                    n_triplet=(10, 15, 5))
        Scenario(**good)
        for field, bad in [
            ("density", "f9"),
            ("n_studies", 7),
            ("mean_vec", (4, 5, 7)),
            ("sigma_ws", 2.0),
            ("n_triplet", (11, 15, 5)),
        ]:
            with pytest.raises(ValueError):
                Scenario(**{**good, field: bad})

    def test_positive_counts_required(self):
        with pytest.raises(ValueError):
            Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                     n_triplet=(10, 15, 5), mc_reps=0)
        with pytest.raises(ValueError, match="mc_reps must be >= 2"):
            Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                     n_triplet=(10, 15, 5), mc_reps=1)
        with pytest.raises(ValueError, match="inner_iterations must be >= 2 for a Monte Carlo SE"):
            Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                     n_triplet=(10, 15, 5), inner_iterations=1)


SMALL = Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=5.0,
                 n_triplet=(10, 15, 5), mc_reps=6, inner_iterations=60, seed=77)


class TestRunScenario:
    def test_crude_substitution_copies_crude_bias(self, monkeypatch):
        def crude(summary, config):
            return crude_effect(summary, standardizer="pair-mean")

        monkeypatch.setattr(bias_study, "sim_effect", crude)
        report = run_scenario(SMALL)
        assert report.bias_g_sim == report.bias_g_crude
        assert report.bias_gwm_sim == report.bias_gwm_crude
        assert report.bias_g_crude > 0.0

    def test_degenerate_replicates_are_retried_and_counted(self, monkeypatch):
        calls = {"n": 0}
        sim_effect = bias_study.sim_effect

        def flaky(summary, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DegenerateSampleError("injected")
            return sim_effect(summary, config)

        monkeypatch.setattr(bias_study, "sim_effect", flaky)
        report = run_scenario(SMALL)
        assert report.retries == 1
        assert math.isfinite(report.bias_gwm_sim)

    def test_bit_identical_across_worker_counts(self):
        serial = run_scenario(SMALL)
        parallel = run_scenario(SMALL, workers=2)
        assert parallel == serial

    def test_bias_aggregation_is_order_invariant(self):
        # mean |g_true - g_est| and the pooled difference ignore study order
        rng = np.random.default_rng(5)
        gv_true = [(rng.normal(), v) for v in rng.uniform(0.01, 0.2, 8)]
        gv_est = [(rng.normal(), v) for v in rng.uniform(0.01, 0.2, 8)]
        diffs = [abs(t[0] - e[0]) for t, e in zip(gv_true, gv_est)]
        bias = math.fsum(diffs) / len(diffs)
        gwm_diff = abs(pool_random_effects(gv_true).g_wm - pool_random_effects(gv_est).g_wm)
        order = rng.permutation(8)
        diffs_p = [diffs[i] for i in order]
        assert math.fsum(diffs_p) / len(diffs_p) == bias
        gwm_diff_p = abs(
            pool_random_effects([gv_true[i] for i in order]).g_wm
            - pool_random_effects([gv_est[i] for i in order]).g_wm
        )
        assert gwm_diff_p == pytest.approx(gwm_diff, rel=1e-9, abs=1e-12)

    def test_sim_beats_crude_in_almost_all_replicate_batches(self):
        # strong-effect setting, large samples: per-batch mean biases
        scenario = Scenario(density="f1", n_studies=10, mean_vec=(4, 5.5, 11), sigma_ws=1.0,
                            n_triplet=(150, 200, 120), mc_reps=50, inner_iterations=300)
        rows = [_replicate(scenario, r) for r in range(scenario.mc_reps)]
        wins = 0
        for start in range(0, 50, 5):
            chunk = rows[start:start + 5]
            crude = math.fsum(r[1] for r in chunk) / len(chunk)
            sim = math.fsum(r[3] for r in chunk) / len(chunk)
            wins += sim < crude
        assert wins >= math.ceil(0.95 * 10)

    def test_sim_gwm_bias_decreases_with_sample_size(self):
        values = []
        for n_triplet in N_TRIPLETS:
            scenario = Scenario(density="f1", n_studies=10, mean_vec=(4, 5.5, 11), sigma_ws=1.0,
                                n_triplet=n_triplet, mc_reps=40, inner_iterations=400)
            values.append(run_scenario(scenario).bias_gwm_sim)
        inversions = sum(1 for a, b in zip(values, values[1:]) if b > a)
        assert inversions <= 1, values
