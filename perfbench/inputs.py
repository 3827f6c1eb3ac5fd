"""Seeded inputs for the benchmark workloads.

Every input the program sees is written here from the workload seed: the
cohort CSV and the OR-record CSV of the desk session, and one scenario JSON
per Monte Carlo cell and pass.  The same seed gives the same files.  The
grid constants are restated here rather than imported, so the inputs do not
depend on the code under test.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

# The published real-data cohorts (Table 2): study, m1..m3, sd1..sd3, n1..n3.
TABLE2 = [
    ("SATIETY", 11.45, 12.16, 14.73, 8.29, 8.38, 9.63, 63, 63, 42),
    ("EUFEST", 4.04, 5.35, 4.67, 5.11, 5.88, 6.44, 74, 40, 9),
    ("ZHH-FE", 3.24, 2.44, 3.64, 2.11, 1.23, 2.42, 25, 24, 21),
]

N_TRIPLETS = (
    (10, 15, 5), (15, 20, 10), (15, 20, 30), (15, 45, 30),
    (35, 45, 30), (75, 100, 60), (150, 200, 120), (300, 400, 240),
)
MEAN_VECTORS = ((4.0, 5.5, 7.0), (4.0, 5.5, 9.0), (4.0, 5.5, 11.0))
STRONG_MEANS = MEAN_VECTORS[2]

STUDY_HEADER = ["study_id", "m1", "m2", "m3", "sd1", "sd2", "sd3", "n1", "n2", "n3"]
OR_HEADER = ["study_id", "label", "or", "ci_lo", "ci_hi", "m_top", "m_bottom"]

OR_PAIRS = 60
Z_95 = 1.96


def _rng(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed,) + tags))


def cohort_rows(seed: int) -> list[tuple]:
    """The Table-2 cohorts plus one synthetic study per grid n-triplet."""
    rng = _rng(seed, "cohorts")
    rows = list(TABLE2)
    for i, n in enumerate(N_TRIPLETS):
        base, sd0 = rng.uniform(1.0, 15.0), rng.uniform(0.5, 8.0)
        slope = rng.uniform(-0.5, 1.5) * sd0
        m = [round(base + slope * k + rng.gauss(0.0, 0.3 * sd0), 2) for k in range(3)]
        sd = [round(sd0 * rng.uniform(0.7, 1.4), 2) for _ in range(3)]
        rows.append((f"SYN{i + 1}", *m, *sd, *n))
    return rows


def or_tables(seed: int) -> dict[str, tuple[tuple[int, int], ...]]:
    """Source 3x2 tables, (present, absent) for AA, AB and BB, per study."""
    rng = _rng(seed, "or")
    return {
        f"OR{i + 1}": tuple((rng.randint(5, 150), rng.randint(5, 150)) for _ in range(3))
        for i in range(OR_PAIRS)
    }


def _or_record(study, label, top, bottom):
    (a, b), (c, d) = top, bottom
    log_or = math.log(a * d / (b * c))
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    return [study, label, repr(math.exp(log_or)), repr(math.exp(log_or - Z_95 * se)),
            repr(math.exp(log_or + Z_95 * se)), a + b, c + d]


def or_rows(tables) -> list[list]:
    """The two reported comparisons (AB vs AA, BB vs AB) of every table."""
    rows = []
    for study, (aa, ab, bb) in tables.items():
        rows.append(_or_record(study, "AB_vs_AA", ab, aa))
        rows.append(_or_record(study, "BB_vs_AB", bb, ab))
    return rows


def write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def pass_seed(seed: int, pass_index: int, cell_index: int = 0) -> int:
    """Seed handed to the program for one pass (and cell) of a run."""
    return _rng(seed, "pass", pass_index, cell_index).getrandbits(31)


# Monte Carlo cells: (density, L, mean_vec, sigma_ws, n_triplet).
MC_SMALL_N = [
    (density, 15, STRONG_MEANS, 1.0, n)
    for n in ((10, 15, 5), (15, 20, 10))
    for density in ("f3", "f4")
]
MC_LARGE_N = [
    ("f2", 10, STRONG_MEANS, 5.0, (300, 400, 240)),  # acceptance cell 4b
    ("f2", 10, STRONG_MEANS, 5.0, (150, 200, 120)),
]
MC_GRID = [
    (("f1", "f2", "f3", "f4")[i % 4], 10, MEAN_VECTORS[i % 3], (1.0, 5.0)[i % 2], n)
    for i, n in enumerate(N_TRIPLETS)
]


def cell_key(cell) -> str:
    density, n_studies, mean_vec, sigma_ws, n_triplet = cell
    return (f"{density}/L{n_studies}/m{mean_vec[2]:g}/s{sigma_ws:g}/"
            f"n{'-'.join(str(n) for n in n_triplet)}")


def is_strong(cell) -> bool:
    """Approximate true additive effect of at least 0.65 SD."""
    _, _, mean_vec, sigma_ws, _ = cell
    return (mean_vec[2] - mean_vec[0]) / 2.0 / sigma_ws >= 0.65


def write_scenario(path: Path, cell, reps: int, inner: int, seed: int) -> None:
    density, n_studies, mean_vec, sigma_ws, n_triplet = cell
    config = {
        "density": density, "L": n_studies, "mean_vec": list(mean_vec),
        "sigma_ws": sigma_ws, "n_triplet": list(n_triplet), "mc_reps": reps,
        "inner_iterations": inner, "seed": seed,
    }
    path.write_text(json.dumps(config) + "\n", encoding="utf-8")
