"""Write references.json: the expected biases of every Monte Carlo cell.

    python3 perfbench/make_references.py

Run from the root of a checkout.  Each cell of the three ``mc-*`` workloads
is run with many replicates at a seed no workload uses, at the workload's
inner iteration count, on every core (the result does not depend on the
worker count).  For every bias the file keeps the mean, the
replicate-level SD and the replicate count, from which the output checks
derive the Monte Carlo SE of a benchmark run.  The stored file was made
from the parent commit of the benchmark; rerun it only when the estimand
itself changes, never to make a failing check pass.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import inputs
from workloads import BIAS_FIELDS, load_package

REFERENCE_SEED = 990_001
WORKLOADS = {
    # name: (cells, inner iterations, replicates)
    "mc-small-n": (inputs.MC_SMALL_N, 2000, 200),
    "mc-large-n": (inputs.MC_LARGE_N, 2000, 100),
    "mc-grid-2w": (inputs.MC_GRID, 10_000, 50),
}


def main() -> None:
    bias_study = load_package(Path.cwd())["bias_study"]
    references = {}
    for name, (cells, inner, reps) in WORKLOADS.items():
        references[name] = {}
        for density, n_studies, mean_vec, sigma_ws, n_triplet in cells:
            start = time.perf_counter()
            scenario = bias_study.Scenario(density, n_studies, mean_vec, sigma_ws, n_triplet,
                                           mc_reps=reps, inner_iterations=inner, seed=REFERENCE_SEED)
            report = bias_study.run_scenario(scenario, workers=os.cpu_count() or 1)
            key = inputs.cell_key((density, n_studies, mean_vec, sigma_ws, n_triplet))
            references[name][key] = {
                field: [getattr(report, field), getattr(report, "mc_se_" + field[5:]) * math.sqrt(reps), reps]
                for field in BIAS_FIELDS
            }
            print(f"{name} {key}: {time.perf_counter() - start:.1f}s", flush=True)
    path = Path(__file__).parent / "references.json"
    path.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
