"""Mixture densities, parameter perturbation, and the bias-study harness."""

import dataclasses
import itertools
import math
import multiprocessing
import re
import sys
import threading
import time

import numpy as np
import pytest

from addmeta import _rng, bias_study, cli, simulate
from addmeta._rng import MC_DATA, MC_INNER, MC_PARAMS, substream
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
from addmeta.effects import StudySummary, crude_effect, effect_from_d
from addmeta.pooling import pool_random_effects
from addmeta.simulate import _Design, draw_fits
from test_effects import reference_crude
from test_simulate import ZeroDraws

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

    @pytest.mark.parametrize("fid", ["f2", "f3", "f4"])
    def test_component_rule_equals_searchsorted_at_the_weight_edges(self, fid):
        dens = DENSITIES[fid]
        cdf = dens._cdf
        # each cumulative weight a uniform can equal (all but the last, 1.0), the float below each one, and 0
        u = np.concatenate([cdf[:-1], np.nextafter(cdf, 0.0), [0.0]])
        assert u.max() == np.nextafter(1.0, 0.0)
        mu, sigma = (np.array([c[i] for c in dens.components]) for i in (1, 2))
        # with every normal draw 1.0, a sample reads sigma + mu of its component, which names the component
        assert len(set((sigma + mu).tolist())) == len(dens.components)
        idx = cdf.searchsorted(u, side="right")
        np.testing.assert_array_equal(dens.sample(u.size, _GivenUniforms(u)), sigma[idx] + mu[idx])

    def test_skewed_mixture_moment_formula(self):
        # independent arithmetic for the eight-component mixture
        l = np.arange(8)
        mu = 3 * ((2 / 3) ** l - 1)
        var = np.mean((2 / 3) ** (2 * l) + mu**2) - np.mean(mu) ** 2
        assert DENSITIES["f2"].analytic_mean == pytest.approx(float(np.mean(mu)), rel=1e-12)
        assert DENSITIES["f2"].analytic_var == pytest.approx(float(var), rel=1e-12)


class _GivenUniforms:
    """Hands MixtureDensity.sample the given uniforms and normal draws of 1.0."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()

    def standard_normal(self, size):
        return np.ones(size)


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

    @pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
    def test_block_rows_equal_the_scalar_formula_bit_for_bit(self, fid):
        dens, n = DENSITIES[fid], 7
        target_means, target_sds = [-3.0, 0.0, 4.5, 1e6], [0.1, 1.0, 2.7, 1e-3]
        block = sample_standardized(dens, n, np.array(target_means)[:, None], np.array(target_sds)[:, None],
                                    substream(62, DENSITY_KEYS[fid]))
        raw = dens.sample((4, n), substream(62, DENSITY_KEYS[fid]))
        assert block.shape == (4, n)
        for row, x, target_mean, target_sd in zip(block, raw, target_means, target_sds):
            expected = [target_mean + target_sd * ((v - dens.analytic_mean) / math.sqrt(dens.analytic_var))
                        for v in x.tolist()]
            assert row.tolist() == expected

    @pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
    def test_block_rows_hit_their_own_targets(self, fid):
        n = 10**5
        target_means, target_sds = np.array([[-2.0], [0.5], [7.0]]), np.array([[0.5], [3.0], [1.5]])
        block = sample_standardized(DENSITIES[fid], n, target_means, target_sds, substream(63, DENSITY_KEYS[fid]))
        for row, target_mean, target_sd in zip(block, target_means[:, 0], target_sds[:, 0]):
            mean, sd = float(row.mean()), float(row.std(ddof=1))
            # the SD's standard error by the delta method: se(var) = sqrt((m4 - var^2) / n), over 2 sd
            m4 = float(((row - mean) ** 4).mean())
            assert abs(mean - target_mean) < 4 * sd / math.sqrt(n)
            assert abs(sd - target_sd) < 4 * math.sqrt((m4 - sd**4) / n) / (2 * sd)


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
            (4.23905021586672, 5.312712439037478, 9.629567524747944), rel=1e-12
        )
        assert sd0 == pytest.approx(
            (2.4868751615758855, 2.305163916977293, 1.1089548593326355), rel=1e-12
        )


class TestScenarioValidation:
    def test_grid_memberships_enforced(self):
        good = dict(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                    n_triplet=(10, 15, 5))
        Scenario(**good)
        for field, bad, message in [
            ("density", "f9", r"^density must be one of \('f1', 'f2', 'f3', 'f4'\), got 'f9'$"),
            ("n_studies", 7, r"^n_studies must be one of \(5, 10, 15\), got 7$"),
            ("mean_vec", (4, 5, 7), r"^mean_vec must be one of \(\(4\.0, 5\.5, 7\.0\), \(4\.0, 5\.5, 9\.0\), "
                                    r"\(4\.0, 5\.5, 11\.0\)\), got \(4\.0, 5\.0, 7\.0\)$"),
            ("sigma_ws", 2, r"^sigma_ws must be one of \(1\.0, 5\.0\), got 2\.0$"),
            ("n_triplet", (11, 15, 5), r"^n_triplet must be one of \(\(10, 15, 5\), .*, \(300, 400, 240\)\), "
                                       r"got \(11, 15, 5\)$"),
        ]:
            with pytest.raises(ValueError, match=message):
                Scenario(**{**good, field: bad})

    def test_positive_counts_required(self):
        with pytest.raises(ValueError):
            Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                     n_triplet=(10, 15, 5), mc_reps=0)
        with pytest.raises(ValueError, match="^mc_reps must be an integer >= 2, got 1$"):
            Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                     n_triplet=(10, 15, 5), mc_reps=1)
        with pytest.raises(ValueError, match="^inner_iterations must be an integer >= 2, got 1$"):
            Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                     n_triplet=(10, 15, 5), inner_iterations=1)

    def test_refuses_more_replicates_than_a_list_holds(self):
        good = dict(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0, n_triplet=(10, 15, 5))
        assert Scenario(**good, mc_reps=sys.maxsize).mc_reps == sys.maxsize
        # run_scenario keeps one result slot per replicate, and a list holds at most sys.maxsize items
        rule = f"mc_reps must be an integer <= {sys.maxsize}, got "
        for reps, shown in [(sys.maxsize + 1, str(sys.maxsize + 1)),
                            (np.uint64(2**64 - 1), repr(np.uint64(2**64 - 1))),
                            (10**5000, "an integer of 16610 bits")]:
            with pytest.raises(ValueError, match=f"^{re.escape(rule + shown)}$"):
                Scenario(**good, mc_reps=reps)

    @pytest.mark.parametrize("field, value, message", [
        ("n_triplet", (10.9, 15, 5), "n_triplet[0] must be an integer, got 10.9"),
        ("n_studies", 5.0, "n_studies must be an integer, got 5.0"),
        ("mc_reps", 2.5, "mc_reps must be an integer >= 2, got 2.5"),
        ("inner_iterations", 2.5, "inner_iterations must be an integer >= 2, got 2.5"),
        ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("seed", True, "seed must be an integer >= 0, got True"),
    ], ids=["float-n-triplet", "float-n-studies", "float-mc-reps", "float-inner-iterations", "float-seed",
            "bool-seed"])
    def test_refuses_a_count_or_seed_that_is_not_an_integer(self, field, value, message):
        good = dict(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=1.0, n_triplet=(10, 15, 5))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scenario(**{**good, field: value})

    def test_takes_numpy_integers_and_seeds_above_2_to_the_53(self):
        scenario = Scenario(density="f1", n_studies=np.int64(5), mean_vec=(4, 5.5, 7), sigma_ws=1.0,
                            n_triplet=np.array([10, 15, 5]), mc_reps=np.int32(2),
                            inner_iterations=np.int64(5), seed=2**64 + 1)
        assert scenario.n_triplet == (10, 15, 5)
        plain = dataclasses.replace(scenario, n_studies=5, mc_reps=2, inner_iterations=5)
        assert run_scenario(scenario) == dataclasses.replace(run_scenario(plain), scenario=scenario)
        assert run_scenario(plain) != run_scenario(dataclasses.replace(plain, seed=2**64))


SMALL = Scenario(density="f1", n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=5.0,
                 n_triplet=(10, 15, 5), mc_reps=6, inner_iterations=60, seed=77)
# the prefix run_scenario gives the error of a failing replicate of SMALL
SMALL_CELL = "scenario density=f1, L=5, mean_vec=(4.0, 5.5, 7.0), sigma_ws=5.0, n_triplet=(10, 15, 5), "


def _drawn_sds(scenario, rep):
    """Each study's SD triplet in replicate ``rep``, as the replicate draws them."""
    _, sds = perturb_study_params(scenario.mean_vec, scenario.sigma_ws, scenario.n_studies,
                                  substream(scenario.seed, MC_PARAMS, rep, 0))
    return sds.T.tolist()


class TestRunScenario:
    def test_crude_substitution_copies_crude_bias(self, monkeypatch):
        def crude(m, sd, n, iterations, rng):
            # one draw whose d is the crude d: its mean is that d bit for bit
            d = crude_effect(StudySummary("s", m, sd, n), standardizer="pair-mean").d
            return np.array([0.0]), np.array([1.0]), np.array([d])

        monkeypatch.setattr(bias_study, "draw_fits", crude)
        report = run_scenario(SMALL)
        assert report.bias_g_sim == report.bias_g_crude
        assert report.bias_gwm_sim == report.bias_gwm_crude
        assert report.bias_g_crude > 0.0

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_bit_identical_across_worker_counts(self, workers, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        def no_process(process):
            raise AssertionError("run_scenario started a process")

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(multiprocessing.Process, "start", no_process)
        threads = threading.active_count()
        serial = run_scenario(SMALL)
        assert started == []
        parallel = run_scenario(SMALL, workers=workers)
        assert parallel == serial
        # the calling thread is one of the workers; no more workers than replicates
        # (one worker starts no thread)
        assert len(started) == min(workers, SMALL.mc_reps) - 1
        assert threading.active_count() == threads

    def test_bit_identical_with_more_threads_than_cores_switching_often(self):
        scenario = dataclasses.replace(SMALL, mc_reps=14, n_triplet=(15, 20, 10))
        serial = run_scenario(scenario)
        simulate._design.cache_clear()  # the helpers race to fill the shared design cache
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_scenario(scenario, workers=7)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial

    def test_failing_replicates_raise_the_serial_error(self, monkeypatch):
        def failing(*args):
            raise ValueError("injected")

        monkeypatch.setattr(bias_study, "draw_fits", failing)
        threads = threading.active_count()
        with pytest.raises(ValueError) as serial:
            run_scenario(SMALL)
        with pytest.raises(ValueError) as parallel:
            run_scenario(SMALL, workers=3)
        assert str(parallel.value) == str(serial.value)
        assert threading.active_count() == threads

    def test_error_names_the_lowest_failing_replicate_at_any_worker_count(self, monkeypatch):
        replicate = bias_study._replicate

        def failing_at_1_and_2(scenario, rep):
            if rep in (1, 2):
                raise ValueError(f"replicate {rep} injected")
            return replicate(scenario, rep)

        monkeypatch.setattr(bias_study, "_replicate", failing_at_1_and_2)
        threads = threading.active_count()
        messages = []
        for workers in (1, 2, 3, 7):
            with pytest.raises(ValueError) as failure:
                run_scenario(SMALL, workers=workers)
            messages.append(str(failure.value))
            assert threading.active_count() == threads
        # whichever thread takes replicate 1 or 2, the lowest failure is the one raised
        assert messages == [SMALL_CELL + "replicate 1: replicate 1 injected"] * 4

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_helper_exception_is_raised_with_its_type_and_message(self, workers, monkeypatch):
        replicate = bias_study._replicate

        def failing_at_1(scenario, rep):
            if rep == 1:
                raise RuntimeError("injected")
            return replicate(scenario, rep)

        monkeypatch.setattr(bias_study, "_replicate", failing_at_1)
        threads = threading.active_count()
        # only a ValueError gets the scenario cell in front
        with pytest.raises(RuntimeError) as failure:
            run_scenario(SMALL, workers=workers)
        assert type(failure.value) is RuntimeError and str(failure.value) == "injected"
        assert threading.active_count() == threads

    def test_helper_out_of_float_range_raises_the_serial_error(self, monkeypatch):
        # study 2 of replicate 1
        overflowing = _drawn_sds(SMALL, 1)[1]

        def overflowing_study(m, sd, n, iterations, rng):
            if sd == overflowing:
                np.float64(1e300) * np.float64(1e300)  # raises only under the replicate's np.errstate
            return draw_fits(m, sd, n, iterations, rng)

        errors = np.geterr()
        monkeypatch.setattr(bias_study, "draw_fits", overflowing_study)
        messages = []
        for workers in (1, 2, 3):
            with pytest.raises(ValueError) as failure:
                run_scenario(SMALL, workers=workers)
            messages.append(str(failure.value))
        assert messages[1:] == messages[:1] * 2
        assert messages[0].startswith(
            SMALL_CELL + "replicate 1: study2: the simulated fits leave the floating-point range")
        assert np.geterr() == errors

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("outcome", ["interrupt", "success", "failure"])
    def test_every_exit_stops_and_joins_the_helpers(self, outcome, workers, monkeypatch):
        caller = threading.current_thread()
        calls = {"caller": 0, "helper": 0}

        def slow(scenario, rep):
            if threading.current_thread() is caller:
                calls["caller"] += 1
                if outcome == "interrupt" and calls["caller"] == 2:
                    raise KeyboardInterrupt  # after the calling thread's first replicate
            else:
                calls["helper"] += 1
            time.sleep(0.05)
            if outcome == "failure" and rep == 3:
                raise ValueError("injected")
            return (0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(bias_study, "_replicate", slow)
        scenario = dataclasses.replace(SMALL, mc_reps=200 if outcome == "interrupt" else 8)
        threads = threading.active_count()
        start = time.perf_counter()
        if outcome == "success":
            assert run_scenario(scenario, workers=workers).retries == 0
        else:
            with pytest.raises(KeyboardInterrupt if outcome == "interrupt" else ValueError):
                run_scenario(scenario, workers=workers)
        assert time.perf_counter() - start < 2
        assert threading.active_count() == threads
        if outcome == "interrupt":
            # each helper finishes the replicate it is in and starts no other
            assert calls["helper"] <= 3 * (workers - 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replicate_system_exit_is_raised_unchanged(self, workers, monkeypatch):
        replicate = bias_study._replicate

        def exiting_at_1(scenario, rep):
            if rep == 1:
                raise SystemExit(3)  # not an Exception, whichever thread takes replicate 1
            return replicate(scenario, rep)

        monkeypatch.setattr(bias_study, "_replicate", exiting_at_1)
        threads = threading.active_count()
        with pytest.raises(SystemExit) as failure:
            run_scenario(SMALL, workers=workers)
        assert type(failure.value) is SystemExit and failure.value.code == 3
        assert threading.active_count() == threads

    def test_first_failure_stops_every_thread_after_its_current_replicate(self, monkeypatch):
        ran = []

        def slow(scenario, rep):
            ran.append(rep)
            time.sleep(0.01)
            if rep == 2:
                raise ValueError("injected")
            return (0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(bias_study, "_replicate", slow)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="replicate 2: injected$"):
            run_scenario(dataclasses.replace(SMALL, mc_reps=200), workers=2)
        # no thread takes another replicate once replicate 2 has failed
        assert len(ran) < 10
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None, True])
    def test_refuses_a_worker_count_that_is_not_a_positive_integer(self, workers):
        with pytest.raises(ValueError, match=rf"^workers must be an integer >= 1, got {workers!r}$"):
            run_scenario(SMALL, workers=workers)

    def test_takes_a_numpy_integer_worker_count(self):
        assert run_scenario(SMALL, workers=np.int64(2)) == run_scenario(SMALL)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_simulated_sd_names_the_replicate_and_study(self, workers, monkeypatch):
        # every study reports SMALL's collinear anchor means, and the inner draws are all 0
        def anchors(mean_vec, sigma_ws, n_studies, rng):
            return np.repeat(np.array(mean_vec)[:, None], n_studies, 1), np.full((3, n_studies), sigma_ws)

        substream_ = bias_study.substream
        monkeypatch.setattr(bias_study, "perturb_study_params", anchors)
        monkeypatch.setattr(bias_study, "substream", lambda seed, tag, *keys:
                            ZeroDraws() if tag == MC_INNER else substream_(seed, tag, *keys))
        with pytest.raises(ValueError) as failure:
            run_scenario(SMALL, workers=workers)
        assert str(failure.value).startswith(
            SMALL_CELL + "replicate 0: study1: the simulated fits leave the floating-point range (divide")

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
        # 200 replicates: at 40 the Monte Carlo SE of each cell (0.007-0.009) exceeded the
        # expected steps between adjacent n-triplets, so the order rested on chance
        values = []
        for n_triplet in N_TRIPLETS:
            scenario = Scenario(density="f1", n_studies=10, mean_vec=(4, 5.5, 11), sigma_ws=1.0,
                                n_triplet=n_triplet, mc_reps=200, inner_iterations=400)
            values.append(run_scenario(scenario).bias_gwm_sim)
        inversions = sum(1 for a, b in zip(values, values[1:]) if b > a)
        assert inversions <= 1, values


def _reference_fit(groups):
    """Truth fit of one dataset, one group at a time: numpy means and Python-float contrasts."""
    design = _Design([len(g) for g in groups])
    means = [float(np.mean(g)) for g in groups]
    sse = sum(float(((g - m) ** 2).sum()) for g, m in zip(groups, means))
    beta = sum(w * m for w, m in zip(design.slope_weights, means))
    curvature = sum(h * m for h, m in zip((1.0, -2.0, 1.0), means))
    sd = math.sqrt((sse + design.curvature_scale * curvature * curvature) / (design.n_total - 2.0))
    if sd == 0.0:
        raise ValueError("sample has zero variance in every group and no lack of fit")
    return beta, sd, beta / sd


def _reference_replicate(scenario, rep):
    """A replicate scored one study at a time: each study's truth fit, crude formula and d-to-g on its own."""
    density = DENSITIES[scenario.density]
    n_triplet = scenario.n_triplet
    means, sds = perturb_study_params(scenario.mean_vec, scenario.sigma_ws, scenario.n_studies,
                                      substream(scenario.seed, MC_PARAMS, rep, 0))
    # one data generator for the three (L, n_k) blocks, one inner generator taken in study order
    rng_data = substream(scenario.seed, MC_DATA, rep, 0)
    blocks = [sample_standardized(density, n_triplet[k], means[k][:, None], sds[k][:, None], rng_data)
              for k in range(3)]
    rng_inner = substream(scenario.seed, MC_INNER, rep, 0)
    studies = []  # one (truth, crude, simulation) effect triple per study
    for i, (m, sd) in enumerate(zip(means.T.tolist(), sds.T.tolist())):
        beta, sd_beta, d = _reference_fit([block[i] for block in blocks])
        crude_slope, crude_sd = reference_crude(m, sd, n_triplet)
        study_id = f"study{i + 1}"
        betas, fit_sds, fit_ds = draw_fits(m, sd, n_triplet, scenario.inner_iterations, rng_inner)
        studies.append((
            effect_from_d(study_id, beta, sd_beta, d, n_triplet, "crude"),
            effect_from_d(study_id, crude_slope, crude_sd, crude_slope / crude_sd, n_triplet, "crude"),
            effect_from_d(study_id, float(betas.mean()), float(fit_sds.mean()), float(fit_ds.mean()),
                          n_triplet, "simulation"),
        ))
    gwm_true, gwm_crude, gwm_sim = (
        pool_random_effects([(e.g, e.v_g) for e in column]).g_wm for column in zip(*studies)
    )
    return (
        math.fsum(abs(truth.g - crude.g) for truth, crude, _ in studies) / len(studies),
        abs(gwm_true - gwm_crude),
        math.fsum(abs(truth.g - sim.g) for truth, _, sim in studies) / len(studies),
        abs(gwm_true - gwm_sim),
    )


class TestStackedReplicate:
    @pytest.mark.parametrize("fid, n_triplet", itertools.product(
        ["f1", "f2", "f3", "f4"], [(10, 15, 5), (300, 400, 240)]))
    def test_matches_per_study_reference_bit_for_bit(self, fid, n_triplet):
        scenario = Scenario(density=fid, n_studies=5, mean_vec=(4, 5.5, 7), sigma_ws=5.0,
                            n_triplet=n_triplet, inner_iterations=40, seed=23)
        for rep in range(2):
            assert _replicate(scenario, rep) == _reference_replicate(scenario, rep)

    def test_simulation_out_of_float_range_names_the_study(self, monkeypatch):
        overflowing = _drawn_sds(SMALL, 0)[1]

        def overflowing_second_study(m, sd, n, iterations, rng):
            if sd == overflowing:
                np.float64(1e300) * np.float64(1e300)  # raises only under the replicate's np.errstate
            return draw_fits(m, sd, n, iterations, rng)

        monkeypatch.setattr(bias_study, "draw_fits", overflowing_second_study)
        with pytest.raises(ValueError, match=r"^study2: the simulated fits leave the "
                                             r"floating-point range \(overflow encountered in .*\)$"):
            _replicate(SMALL, 0)

    @pytest.mark.parametrize("n_studies", [5, 10, 15])
    def test_a_replicate_builds_three_generators_and_derives_no_seed(self, n_studies, monkeypatch):
        calls = {"substream": [], "derive_seed": 0}
        substream_, derive_seed_ = _rng.substream, _rng.derive_seed

        def counting_substream(*keys):
            calls["substream"].append(keys)
            return substream_(*keys)

        def counting_derive_seed(*keys):
            calls["derive_seed"] += 1
            return derive_seed_(*keys)

        # every module binding of either function, as a tracer would wrap them
        for module in (_rng, bias_study, cli, simulate):
            for name, wrapper in (("substream", counting_substream), ("derive_seed", counting_derive_seed)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        _replicate(dataclasses.replace(SMALL, n_studies=n_studies), 3)
        assert sorted(calls["substream"]) == [(SMALL.seed, tag, 3, 0) for tag in (MC_PARAMS, MC_DATA, MC_INNER)]
        assert calls["derive_seed"] == 0
