"""Monte Carlo bias study comparing the two additive estimators.

The protocol, per replicate of a scenario:

1. draw per-study "reported" parameters: for each genotype group, L means
   around the scenario mean vector and L within-study SDs around sigma_ws
   (normal perturbations with SD 2, negatives replaced);
2. draw original individual data for each study from a shape density
   (normal, strongly right-skewed, asymmetric bimodal, or kurtotic normal
   mixture), affinely standardized so each group matches its drawn mean/SD;
3. fit the additive regression to the original data: each study draws its
   data from its own substream into row i of three (L, n_k) blocks, and one
   stacked fit gives every study's "true" d;
4. hand the reported parameters - not the sample statistics - to the crude
   estimator (pair-mean standardizer) and to the simulation estimator; their
   d's and the true d's are the rows of one (3, L) array;
5. turn that array into g's in one pairwise step, pool each row, and record
   each estimator's mean absolute per-study difference |g_true - g_est| and
   absolute pooled difference |gWM_true - gWM_est|.

Biases are averaged across replicates; Monte Carlo standard errors come
from the replicate-level spread.  Everything is deterministic given
(scenario, seed) at any worker count.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._rng import MC_DATA, MC_INNER, MC_PARAMS, derive_seed, substream
from .effects import SD_MAX, SD_MIN, StudySummary, pairwise_g
from .pooling import pool_random_effects
from .simulate import DEFAULT_SEED, DegenerateSampleError, additive_fit_rows, draw_fits, range_error

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
MAX_REPLICATE_RETRIES = 32

# Desk-scale defaults; the reference protocol is 500 replicates with 10000
# inner iterations.
DEFAULT_REPLICATES = 100
DEFAULT_INNER_ITERATIONS = 2000


@dataclass(frozen=True)
class MixtureDensity:
    """A normal mixture with unit-level components (weight, mean, sd)."""

    id: str
    label: str
    components: tuple[tuple[float, float, float], ...]
    analytic_mean: float = field(init=False)
    analytic_var: float = field(init=False)

    def __post_init__(self):
        w = np.array([c[0] for c in self.components])
        mu = np.array([c[1] for c in self.components])
        sigma = np.array([c[2] for c in self.components])
        if np.any(w <= 0) or np.any(sigma <= 0):
            raise ValueError(f"{self.id}: weights and sigmas must be > 0")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"{self.id}: weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "_mu", mu)
        object.__setattr__(self, "_sigma", sigma)
        cdf = w.cumsum()
        object.__setattr__(self, "_cdf", cdf / cdf[-1])
        mean = float((w * mu).sum())
        var = float((w * (sigma**2 + mu**2)).sum() - mean**2)
        object.__setattr__(self, "analytic_mean", mean)
        object.__setattr__(self, "analytic_var", var)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values from the raw (unstandardized) mixture."""
        if len(self.components) == 1:
            return rng.normal(self._mu[0], self._sigma[0], size=n)
        # rng.choice(len(w), size=n, p=w) draws this stream, less its per-call checks
        idx = self._cdf.searchsorted(rng.random(n), side="right")
        return rng.standard_normal(n) * self._sigma[idx] + self._mu[idx]


def _skewed_components() -> tuple[tuple[float, float, float], ...]:
    return tuple((1.0 / 8.0, 3.0 * ((2.0 / 3.0) ** l - 1.0), (2.0 / 3.0) ** l) for l in range(8))


DENSITIES: dict[str, MixtureDensity] = {
    "f1": MixtureDensity("f1", "normal", ((1.0, 0.0, 1.0),)),
    "f2": MixtureDensity("f2", "strongly-skewed", _skewed_components()),
    "f3": MixtureDensity("f3", "asymmetric-bimodal", ((0.75, 0.0, 1.0), (0.25, 1.5, 1.0 / 3.0))),
    "f4": MixtureDensity("f4", "kurtotic", ((2.0 / 3.0, 0.0, 1.0), (1.0 / 3.0, 0.0, 0.1))),
}


def sample_standardized(
    density: MixtureDensity,
    n: int,
    target_mean: float,
    target_sd: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw from ``density`` affinely rescaled to the target mean and SD.

    The shape (skewness, kurtosis) of the mixture is preserved; only its
    first two population moments are moved onto the targets.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if target_sd <= 0:
        raise ValueError(f"target_sd must be > 0, got {target_sd}")
    x = density.sample(n, rng)
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
    if n_studies < 1:
        raise ValueError(f"n_studies must be >= 1, got {n_studies}")
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
        if self.density not in DENSITIES:
            raise ValueError(f"density must be one of {sorted(DENSITIES)}, got {self.density!r}")
        if self.n_studies not in STUDY_COUNTS:
            raise ValueError(f"n_studies must be in {STUDY_COUNTS}, got {self.n_studies}")
        object.__setattr__(self, "mean_vec", tuple(float(x) for x in self.mean_vec))
        if self.mean_vec not in MEAN_VECTORS:
            raise ValueError(f"mean_vec must be one of {MEAN_VECTORS}, got {self.mean_vec}")
        if float(self.sigma_ws) not in SIGMA_WS_VALUES:
            raise ValueError(f"sigma_ws must be in {SIGMA_WS_VALUES}, got {self.sigma_ws}")
        object.__setattr__(self, "sigma_ws", float(self.sigma_ws))
        object.__setattr__(self, "n_triplet", tuple(int(x) for x in self.n_triplet))
        if self.n_triplet not in N_TRIPLETS:
            raise ValueError(f"n_triplet must be one of {N_TRIPLETS}, got {self.n_triplet}")
        if self.mc_reps < 2:
            raise ValueError(f"mc_reps must be >= 2 for a Monte Carlo SE, got {self.mc_reps}")
        if self.inner_iterations < 2:
            raise ValueError(
                f"inner_iterations must be >= 2 for a Monte Carlo SE, got {self.inner_iterations}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def full_grid(**fields) -> list[Scenario]:
    """Every cell of the scenario grid, densities outermost and n-triplets innermost.

    ``fields`` (``mc_reps``, ``seed``, ...) apply to every cell; Scenario supplies the rest.
    """
    return [
        Scenario(
            density=density,
            n_studies=n_studies,
            mean_vec=mean_vec,
            sigma_ws=sigma_ws,
            n_triplet=n_triplet,
            **fields,
        )
        for density, n_studies, sigma_ws, mean_vec, n_triplet in itertools.product(
            DENSITIES, STUDY_COUNTS, SIGMA_WS_VALUES, MEAN_VECTORS, N_TRIPLETS
        )
    ]


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
    retries: int


def _check_params(means: np.ndarray, sds: np.ndarray, n_triplet: tuple[int, int, int]) -> None:
    """StudySummary's checks on every study's drawn (3, L) means and SDs at once.

    The first study that fails them raises StudySummary's error for it.
    """
    ok = np.isfinite(means).all(axis=0) & ((sds >= SD_MIN) & (sds < SD_MAX)).all(axis=0)
    if not ok.all():
        i = int(ok.argmin())
        StudySummary(f"study{i + 1}", means[:, i].tolist(), sds[:, i].tolist(), n_triplet)


def _crude_ds(means: np.ndarray, sds: np.ndarray, n_triplet: tuple[int, int, int]) -> np.ndarray:
    """Every study's crude d from (3, L) means and SDs, bit for bit as ``crude_effect``'s pair-mean d.

    The SDs are squared as Python floats, as ``pooled_sd`` squares them:
    libm's pow(s, 2) and numpy's s * s round differently for about 0.08% of
    doubles.
    """
    n1, n2, n3 = n_triplet
    var = np.array([[s**2 for s in row] for row in sds.tolist()])
    sd12 = np.sqrt(((n1 - 1) * var[0] + (n2 - 1) * var[1]) / (n1 + n2 - 2))
    sd23 = np.sqrt(((n2 - 1) * var[1] + (n3 - 1) * var[2]) / (n2 + n3 - 2))
    return (means[2] - means[0]) / 2.0 / ((sd12 + sd23) / 2.0)


def _replicate(scenario: Scenario, rep: int):
    """One replicate: (bias_g_crude, bias_gwm_crude, bias_g_sim, bias_gwm_sim, retries)."""
    density = DENSITIES[scenario.density]
    n_triplet, n_studies = scenario.n_triplet, scenario.n_studies
    for attempt in range(MAX_REPLICATE_RETRIES):
        try:
            rng_params = substream(scenario.seed, MC_PARAMS, rep, attempt)
            means, sds = perturb_study_params(scenario.mean_vec, scenario.sigma_ws, n_studies, rng_params)
            _check_params(means, sds, n_triplet)
            studies = list(enumerate(zip(means.T.tolist(), sds.T.tolist())))
            blocks = [np.empty((n_studies, n_k)) for n_k in n_triplet]
            for i, (m, sd) in studies:
                rng_data = substream(scenario.seed, MC_DATA, rep, attempt, i)
                for k in range(3):
                    blocks[k][i] = sample_standardized(density, n_triplet[k], m[k], sd[k], rng_data)
            ds = np.empty((3, n_studies))  # rows: truth, crude, simulation
            ds[0] = additive_fit_rows(blocks)[2]
            ds[1] = _crude_ds(means, sds, n_triplet)
            # each study's d is the mean of its per-draw d's, as in sim_effect
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for i, (m, sd) in studies:
                    inner_seed = derive_seed(scenario.seed, MC_INNER, rep, attempt, i)
                    try:
                        draws = draw_fits(m, sd, n_triplet, scenario.inner_iterations, inner_seed)[2]
                        ds[2, i] = float(draws.sum()) / draws.size
                    except (FloatingPointError, ZeroDivisionError) as exc:
                        raise range_error(f"study{i + 1}", exc) from None
            gs, vs = pairwise_g(ds, n_triplet)
            gwm = [pool_random_effects(list(zip(g, v))).g_wm for g, v in zip(gs.tolist(), vs.tolist())]
            # per-study and pooled differences of the crude (row 1) and simulation (row 2) estimates
            biases = [(math.fsum(np.abs(gs[0] - gs[r]).tolist()) / n_studies, abs(gwm[0] - gwm[r]))
                      for r in (1, 2)]
            return (*biases[0], *biases[1], attempt)
        except DegenerateSampleError:
            continue
    raise DegenerateSampleError(
        f"replicate {rep} of scenario {scenario} degenerate after {MAX_REPLICATE_RETRIES} attempts"
    )


def _shard(scenario: Scenario, start: int, step: int, stop: threading.Event):
    """Replicates start, start + step, ... of a scenario, up to the first that fails.

    Returns ``(rows, failure)``: ``failure`` is None, or the failing
    ``(replicate, exception)`` and ``rows`` holds the replicates before it.
    Once ``stop`` is set, no further replicate starts.
    """
    rows = []
    for rep in range(start, scenario.mc_reps, step):
        if stop.is_set():
            break
        try:
            rows.append(_replicate(scenario, rep))
        except Exception as exc:
            return rows, (rep, exc)
    return rows, None


def run_scenario(scenario: Scenario, workers: int = 1) -> BiasReport:
    """Run all replicates of a scenario and aggregate the bias metrics.

    ``workers`` threads share the replicates in interleaved shards: the
    calling thread computes replicates 0, W, 2W, ... and a helper thread per
    further shard j computes j, j + W, ..., where W is ``workers`` capped at
    the replicate count.  A failing run raises the exception of its lowest
    failing replicate once every shard has reported.  Any exit of the calling
    thread, an interrupt included, stops the helpers within one replicate and
    joins them.  The result, or the error raised, is the same at any worker count.
    """
    reps = scenario.mc_reps
    shards = min(workers, reps)
    results = [None] * shards
    stop = threading.Event()

    def work(j: int) -> None:
        results[j] = _shard(scenario, j, shards, stop)

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

    if None in results:
        raise RuntimeError(f"bias-study worker {results.index(None)} ended without its replicates")
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]  # the lowest failing replicate
    rows = [None] * reps
    for j, (shard_rows, _) in enumerate(results):
        rows[j::shards] = shard_rows
    columns = list(zip(*rows))
    means = [math.fsum(col) / reps for col in columns[:4]]
    ses = [math.sqrt(math.fsum((x - mean) ** 2 for x in col) / (reps - 1) / reps)
           for col, mean in zip(columns[:4], means)]
    return BiasReport(scenario, *means, *ses, retries=sum(columns[4]))
