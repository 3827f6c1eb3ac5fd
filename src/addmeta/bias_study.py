"""Monte Carlo bias study comparing the two additive estimators.

The protocol, per replicate of a scenario:

1. draw per-study "reported" parameters: for each genotype group, L means
   around the scenario mean vector and L within-study SDs around sigma_ws
   (normal perturbations with SD 2, negatives replaced);
2. draw original individual data for each study from a shape density
   (normal, strongly right-skewed, asymmetric bimodal, or kurtotic normal
   mixture), affinely standardized so each group matches its drawn mean/SD;
3. fit the additive regression to the original data: each group's data for
   all L studies is one (L, n_k) block, row i for study i, and one stacked
   fit gives every study's "true" d;
4. hand the reported parameters - not the sample statistics - to the crude
   estimator (pair-mean standardizer) and to the simulation estimator; their
   d's and the true d's are the rows of one (3, L) array;
5. turn that array into g's in one pairwise step, pool each row, and record
   each estimator's mean absolute per-study difference |g_true - g_est| and
   absolute pooled difference |gWM_true - gWM_est|.

A replicate draws steps 1, 2 and 4 from three generators keyed by (seed,
replicate); step 4's studies draw from theirs in turn.  Biases are averaged
across replicates; Monte Carlo standard errors come from the replicate-level
spread.  Everything is deterministic given (scenario, seed) at any worker count.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import MC_DATA, MC_INNER, MC_PARAMS, substream
from .effects import crude_beta, pairwise_g
from .pooling import pool_random_effects
from .simulate import DEFAULT_SEED, additive_fit_rows, draw_fits, range_error, require_integer

# Scenario grid.
STUDY_COUNTS = (5, 10, 15)
MEAN_VECTORS = ((4.0, 5.5, 7.0), (4.0, 5.5, 9.0), (4.0, 5.5, 11.0))
SIGMA_WS_VALUES = (1.0, 5.0)
N_TRIPLETS = (
    (10, 15, 5),
    (15, 20, 10),
    (15, 20, 30),
    (15, 45, 30),
    (35, 45, 30),
    (75, 100, 60),
    (150, 200, 120),
    (300, 400, 240),
)

PERTURB_SD = 2.0

# Desk-scale defaults; the reference protocol is 500 replicates with 10000
# inner iterations.
DEFAULT_REPLICATES = 100
DEFAULT_INNER_ITERATIONS = 2000


class MixtureDensity:
    """A normal mixture with unit-level components (weight, mean, sd)."""

    def __init__(self, components: tuple[tuple[float, float, float], ...]):
        self.components = components
        w, self._mu, self._sigma = (np.array(column) for column in zip(*components))
        cdf = w.cumsum()
        self._cdf = cdf / cdf[-1]
        self.analytic_mean = float((w * self._mu).sum())
        self.analytic_var = float((w * (self._sigma**2 + self._mu**2)).sum() - self.analytic_mean**2)

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draw an array of shape ``size`` from the raw (unstandardized) mixture."""
        # rng.choice(len(w), size=size, p=w) draws this stream, less its per-call checks
        idx = self._cdf.searchsorted(rng.random(size), side="right") if len(self.components) > 1 else 0
        return rng.standard_normal(size) * self._sigma[idx] + self._mu[idx]


def _skewed_components() -> tuple[tuple[float, float, float], ...]:
    return tuple((1.0 / 8.0, 3.0 * ((2.0 / 3.0) ** l - 1.0), (2.0 / 3.0) ** l) for l in range(8))


DENSITIES: dict[str, MixtureDensity] = {
    "f1": MixtureDensity(((1.0, 0.0, 1.0),)),  # normal
    "f2": MixtureDensity(_skewed_components()),  # strongly skewed
    "f3": MixtureDensity(((0.75, 0.0, 1.0), (0.25, 1.5, 1.0 / 3.0))),  # asymmetric bimodal
    "f4": MixtureDensity(((2.0 / 3.0, 0.0, 1.0), (1.0 / 3.0, 0.0, 0.1))),  # kurtotic
}

# Each grid field's values, in full_grid's order: densities outermost, n-triplets innermost.
_GRID = {"density": tuple(DENSITIES), "n_studies": STUDY_COUNTS, "sigma_ws": SIGMA_WS_VALUES,
         "mean_vec": MEAN_VECTORS, "n_triplet": N_TRIPLETS}


def sample_standardized(density: MixtureDensity, n: int, target_mean: float | np.ndarray,
                        target_sd: float | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw from ``density`` affinely rescaled to the target mean and SD.

    Float targets give ``n`` draws; (L, 1) targets give an (L, n) block
    whose row i is rescaled to ``target_mean[i]`` and ``target_sd[i]``.  The
    shape (skewness, kurtosis) of the mixture is preserved; only its first
    two population moments are moved onto the targets.
    """
    x = density.sample(np.broadcast_shapes(np.shape(target_mean), np.shape(target_sd), (n,)), rng)
    z = (x - density.analytic_mean) / math.sqrt(density.analytic_var)
    return target_mean + target_sd * z


def perturb_study_params(
    mean_vec: Sequence[float],
    sigma_ws: float,
    n_studies: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw every study's group means and SDs around the scenario anchors.

    Returns ``(means, sds)``, two (3, n_studies) arrays whose row k holds
    group k.  Group means are N(mean_vec[k], PERTURB_SD) and within-study SDs
    are N(sigma_ws, PERTURB_SD).  A negative mean draw in any group is
    replaced by mean_vec[0], as in the reference protocol; a nonpositive SD
    draw is replaced by sigma_ws.
    """
    anchors = np.asarray(mean_vec, dtype=float)[:, None]
    means = rng.normal(anchors, PERTURB_SD, (3, n_studies))
    sds = rng.normal(sigma_ws, PERTURB_SD, (3, n_studies))
    means = np.where(means < 0, anchors[0], means)
    sds[sds <= 0] = sigma_ws
    return means, sds


@dataclass(frozen=True)
class Scenario:
    """One cell of the bias-study grid."""

    density: str
    n_studies: int
    mean_vec: tuple[float, float, float]
    sigma_ws: float
    n_triplet: tuple[int, int, int]
    mc_reps: int = DEFAULT_REPLICATES
    inner_iterations: int = DEFAULT_INNER_ITERATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # 2 replicates and 2 inner iterations, so that there is a Monte Carlo SE
        for name, low in (("n_studies", None), ("mc_reps", 2), ("inner_iterations", 2), ("seed", 0)):
            require_integer(name, getattr(self, name), low)
        for i, k in enumerate(self.n_triplet):
            require_integer(f"n_triplet[{i}]", k)
        object.__setattr__(self, "mean_vec", tuple(float(x) for x in self.mean_vec))
        object.__setattr__(self, "sigma_ws", float(self.sigma_ws))
        object.__setattr__(self, "n_triplet", tuple(int(x) for x in self.n_triplet))
        for name, grid in _GRID.items():
            if getattr(self, name) not in grid:
                raise ValueError(f"{name} must be one of {grid}, got {getattr(self, name)!r}")


def full_grid(**fields) -> list[Scenario]:
    """Every cell of the scenario grid, densities outermost and n-triplets innermost.

    ``fields`` (``mc_reps``, ``seed``, ...) apply to every cell; Scenario supplies the rest.
    """
    return [Scenario(**dict(zip(_GRID, cell)), **fields) for cell in itertools.product(*_GRID.values())]


@dataclass(frozen=True)
class BiasReport:
    """Mean absolute biases (and their Monte Carlo SEs) for one scenario."""

    scenario: Scenario
    bias_g_crude: float
    bias_gwm_crude: float
    bias_g_sim: float
    bias_gwm_sim: float
    mc_se_g_crude: float
    mc_se_gwm_crude: float
    mc_se_g_sim: float
    mc_se_gwm_sim: float
    retries: int = 0  # the replicate redraws nothing; kept for the CSV's column layout


def _replicate(scenario: Scenario, rep: int):
    """One replicate: (bias_g_crude, bias_gwm_crude, bias_g_sim, bias_gwm_sim)."""
    n_triplet, n_studies = scenario.n_triplet, scenario.n_studies
    # each stream key keeps a 0 where an older protocol numbered redrawn replicates
    rng_params, rng_data, rng_inner = (substream(scenario.seed, tag, rep, 0)
                                       for tag in (MC_PARAMS, MC_DATA, MC_INNER))
    means, sds = perturb_study_params(scenario.mean_vec, scenario.sigma_ws, n_studies, rng_params)
    blocks = [sample_standardized(DENSITIES[scenario.density], n_k, means[k, :, None], sds[k, :, None],
                                  rng_data) for k, n_k in enumerate(n_triplet)]
    ds = np.empty((3, n_studies))  # rows: truth, crude, simulation
    ds[0] = additive_fit_rows(blocks)[2]
    beta, sd_beta = crude_beta(means, sds, n_triplet)
    ds[1] = beta / sd_beta
    # each study's d is the mean of its per-draw d's, as in sim_effect; the studies draw in turn
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for i, (m, sd) in enumerate(zip(means.T.tolist(), sds.T.tolist())):
                draws = draw_fits(m, sd, n_triplet, scenario.inner_iterations, rng_inner)[2]
                ds[2, i] = float(draws.sum()) / draws.size
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise range_error(f"study{i + 1}", exc) from None
    gs, vs = pairwise_g(ds, n_triplet)
    gwm = [pool_random_effects(list(zip(g, v))).g_wm for g, v in zip(gs.tolist(), vs.tolist())]
    # per-study and pooled differences of the crude (row 1) and simulation (row 2) estimates
    biases = [(math.fsum(np.abs(gs[0] - gs[r]).tolist()) / n_studies, abs(gwm[0] - gwm[r]))
              for r in (1, 2)]
    return (*biases[0], *biases[1])


def run_scenario(scenario: Scenario, workers: int = 1) -> BiasReport:
    """Run all replicates of a scenario and aggregate the bias metrics.

    ``workers``, an integer >= 1, is the number of threads that share the
    replicates in interleaved shards: the calling thread computes replicates
    0, W, 2W, ... and a helper thread per further shard j computes j, j + W,
    ..., where W is ``workers`` capped at the replicate count.  Each
    replicate's biases, or the exception that stops its shard, go into its
    own slot.  A failing run raises the exception of its lowest failing
    replicate once every shard has ended; a ValueError's message names the
    scenario cell and replicate first.  Any exit of the calling thread, an
    interrupt included, stops the helpers within one replicate and joins
    them.  The result, or the error raised, is the same at any worker count.
    """
    require_integer("workers", workers, 1)
    reps = scenario.mc_reps
    shards = min(workers, reps)
    rows = [None] * reps
    stop = threading.Event()

    def work(j: int) -> None:
        for rep in range(j, reps, shards):
            if stop.is_set():
                break
            try:
                rows[rep] = _replicate(scenario, rep)
            except Exception as exc:
                rows[rep] = exc
                break

    helpers = []
    try:
        for j in range(1, shards):
            helper = threading.Thread(target=work, args=(j,), daemon=True)
            helper.start()
            helpers.append(helper)
        work(0)
        for helper in helpers:
            helper.join()
    finally:
        stop.set()  # after an early exit, no helper starts another replicate
        for helper in helpers:
            helper.join()

    for rep, row in enumerate(rows):
        if row is None:  # only a helper killed by a non-Exception leaves a slot before any failure
            raise RuntimeError(f"bias-study worker {rep % shards} ended without its replicates")
        if isinstance(row, Exception):
            if type(row) is ValueError:
                raise ValueError(f"scenario density={scenario.density}, L={scenario.n_studies}, "
                                 f"mean_vec={scenario.mean_vec}, sigma_ws={scenario.sigma_ws}, "
                                 f"n_triplet={scenario.n_triplet}, replicate {rep}: {row}") from row
            raise row
    columns = list(zip(*rows))
    means = [math.fsum(col) / reps for col in columns]
    ses = [math.sqrt(math.fsum((x - mean) ** 2 for x in col) / (reps - 1) / reps)
           for col, mean in zip(columns, means)]
    return BiasReport(scenario, *means, *ses)
