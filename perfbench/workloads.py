"""The benchmark's four workloads, each run in a fresh process by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Run from the root of a checkout: ``addmeta`` is imported from its ``src/``.
The workload writes its inputs from the seed into a scratch directory, then
runs passes in a closed loop with a single caller (the next pass starts when
the previous one ends) for the given seconds, checks every output, and
writes one JSON result to FILE.  With ``--trace 1`` it alternates untraced
and traced passes, and reports per-layer metrics and the difference between
the two kinds of pass as tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import checks
import inputs
import tracing

BIAS_FIELDS = ("bias_g_crude", "bias_gwm_crude", "bias_g_sim", "bias_gwm_sim")
# Median probe time on the machine the benchmark was defined on (2 vCPUs,
# Xeon at 2.1 GHz, shared); see speed_adjusted().
PROBE_REFERENCE_S = 0.0266
GRID_CELLS, GRID_REPLICATES = 576, 500
DESK_ITERATIONS = 10_000
MAX_ERRORS = 20


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class Run:
    """Tallies operations and keeps the first error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ops: int, errors: list[str]) -> None:
        """``ops`` operations, failed when ``errors`` is not empty."""
        self.attempted += ops
        if errors:
            self.failed += ops
            self.errors.extend(errors[: MAX_ERRORS - len(self.errors)])


class Desk:
    """A meta-analyst's session through the CLI: effect (crude and sim), meta on both, or."""

    def __init__(self, package, seed: int, work: Path):
        self.cli = package["cli"]
        self.seed, self.work = seed, work
        self.studies = inputs.cohort_rows(seed)
        self.tables = inputs.or_tables(seed)
        inputs.write_csv(work / "cohorts.csv", inputs.STUDY_HEADER, self.studies)
        inputs.write_csv(work / "ors.csv", inputs.OR_HEADER, inputs.or_rows(self.tables))

    def _main(self, argv) -> object:
        try:
            return self.cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            return f"{type(exc).__name__}: {exc}"

    def run_pass(self, index: int, run: Run, tracer: tracing.Tracer) -> dict:
        w = self.work
        calls = {
            "effect-crude": ["effect", w / "cohorts.csv", "-o", w / "crude.csv"],
            "effect-sim": ["effect", w / "cohorts.csv", "--method", "sim", "--iterations", DESK_ITERATIONS,
                           "--seed", inputs.pass_seed(self.seed, index), "--workers", 1,
                           "-o", w / "sim.csv"],
            "meta-crude": ["meta", w / "crude.csv", "-o", w / "pooled_crude.csv"],
            "meta-sim": ["meta", w / "sim.csv", "-o", w / "pooled_sim.csv"],
            "or": ["or", w / "ors.csv", "-o", w / "combined.csv"],
        }
        walls, codes = {}, {}
        for op, argv in calls.items():
            tracer.op = f"{index}:{op}"
            start = time.perf_counter()
            codes[op] = self._main(argv)
            walls[op] = time.perf_counter() - start
        mismatches = self._check(run, codes)
        return {"wall_s": sum(walls.values()), "sim_s": walls["effect-sim"], "or_s": walls["or"],
                "mismatches": mismatches}

    def _check(self, run: Run, codes: dict) -> int:
        w, n = self.work, len(self.studies)
        for op, method, out in (("effect-crude", "crude", "crude.csv"), ("effect-sim", "sim", "sim.csv")):
            if codes[op] != 0:
                run.record(n, [f"{op} exited with {codes[op]}"])
                run.record(1, [f"meta on {out} skipped"])
                continue
            rows = {row["study_id"]: row for row in _read_rows(w / out)}
            for study in self.studies:
                row = rows.get(study[0])
                run.record(1, [f"{op}: no row for {study[0]}"] if row is None
                           else checks.check_effect_row(row, study, method, DESK_ITERATIONS))
            meta_op = "meta-" + method
            if codes[meta_op] != 0:
                run.record(1, [f"{meta_op} exited with {codes[meta_op]}"])
                continue
            effects = [(float(r["g"]), float(r["v_g"])) for r in rows.values()]
            run.record(1, checks.check_meta_row(_read_rows(w / f"pooled_{method}.csv")[0], effects))
        if codes["or"] != 0:
            run.record(len(self.tables), [f"or exited with {codes['or']}"])
            return 0
        rows = {row["study_id"]: row for row in _read_rows(w / "combined.csv")}
        mismatches = 0
        for study, table in self.tables.items():
            errors, matched = checks.check_or_row(rows.get(study, {"study_id": study}), table)
            if errors or matched:
                run.record(1, errors)
            else:
                mismatches += 1
        too_many = mismatches > checks.MAX_MISMATCH_SHARE * len(self.tables)
        run.record(mismatches, [f"or: {mismatches} of {len(self.tables)} outputs differ from "
                                "the fit of their source tables"] if too_many else [])
        return mismatches

    def warm_up(self, run: Run, tracer: tracing.Tracer) -> None:
        self.run_pass(-1, run, tracer)

    def finish(self, run: Run) -> None:
        pass

    def end_to_end(self, passes: list[dict]) -> tuple[dict, dict]:
        """(end-to-end metrics, workload-only figures for the report)."""
        pass_s, studies = speed_adjusted(passes), len(self.studies)
        report = {
            "pipeline_s": pass_s,
            "or_studies_per_s": len(self.tables) / speed_adjusted(passes, "or_s"),
            "sim_studies_per_wall_s": studies / statistics.median(p["sim_s"] for p in passes),
        }
        return {"pass_s": pass_s, "sim_studies_per_s": studies / speed_adjusted(passes, "sim_s")}, report


class MonteCarlo:
    """Bias-study cells, every pass with fresh scenario seeds.

    Serial workloads call ``run_scenario`` on each scenario file; the grid
    workload runs ``addmeta mc FILE --workers N`` through the CLI.  Biases
    are averaged over all passes of a run and checked against the stored
    reference run of each cell.
    """

    def __init__(self, package, seed: int, work: Path, cells, reps: int, inner: int,
                 workers: int, reference: dict):
        self.package = package
        self.seed, self.work = seed, work
        self.cells, self.reps, self.inner, self.workers = cells, reps, inner, workers
        self.reference = reference
        self.biases = [{f: [] for f in BIAS_FIELDS} for _ in cells]

    def _run_cell(self, path: Path, out: Path) -> dict:
        if self.workers == 1:
            scenario = self.package["io"].read_scenario(path)
            report = self.package["bias_study"].run_scenario(scenario)
            return {f: getattr(report, f) for f in BIAS_FIELDS}
        argv = ["mc", str(path), "-o", str(out), "--workers", str(self.workers)]
        code = self.package["cli"].main(argv)
        if code != 0:
            raise RuntimeError(f"mc exited with {code}")
        return {f: float(_read_rows(out)[0][f]) for f in BIAS_FIELDS}

    def _cells(self, index: int, cells, run: Run, tracer: tracing.Tracer) -> float:
        wall = 0.0
        for c in cells:
            path, out = self.work / f"cell{c}.json", self.work / f"cell{c}.csv"
            inputs.write_scenario(path, self.cells[c], self.reps, self.inner,
                                  inputs.pass_seed(self.seed, index, c))
            tracer.op = f"{index}:{inputs.cell_key(self.cells[c])}"
            start = time.perf_counter()
            try:
                biases = self._run_cell(path, out)
            except (Exception, SystemExit) as exc:
                run.record(self.reps, [f"{inputs.cell_key(self.cells[c])}: {type(exc).__name__}: {exc}"])
                continue
            finally:
                wall += time.perf_counter() - start
            for field, value in biases.items():
                self.biases[c][field].append(value)
        return wall

    def run_pass(self, index: int, run: Run, tracer: tracing.Tracer) -> dict:
        return {"wall_s": self._cells(index, range(len(self.cells)), run, tracer)}

    def warm_up(self, run: Run, tracer: tracing.Tracer) -> None:
        self._cells(-1, [0], run, tracer)

    def finish(self, run: Run) -> None:
        """Check each cell's biases over all its runs; count its replicates."""
        for cell, biases in zip(self.cells, self.biases):
            runs = len(biases[BIAS_FIELDS[0]])
            if runs:
                key = inputs.cell_key(cell)
                run.record(self.reps * runs, checks.check_bias(
                    key, biases, self.reps, self.reference[key], inputs.is_strong(cell)))

    def end_to_end(self, passes: list[dict]) -> tuple[dict, dict]:
        # The probe runs on one core; across runs it tracked the serial
        # workloads' speed but added spread to the two-process grid's.
        if self.workers == 1:
            pass_s = speed_adjusted(passes)
        else:
            pass_s = statistics.median(p["wall_s"] for p in passes)
        replicates = self.reps * len(self.cells)
        studies = self.reps * sum(cell[1] for cell in self.cells)
        report = {"replicates_per_s": replicates / pass_s}
        if self.workers > 1:
            report["grid_reference_projected_h"] = (
                pass_s / replicates * GRID_CELLS * GRID_REPLICATES / 3600.0)
        return {"pass_s": pass_s, "sim_studies_per_s": studies / pass_s}, report


# Monte Carlo workloads: (cells, replicates per cell and pass, inner iterations, workers)
MONTE_CARLO = {
    "mc-small-n": (inputs.MC_SMALL_N, 8, 2000, 1),
    "mc-large-n": (inputs.MC_LARGE_N, 2, 2000, 1),
    "mc-grid-2w": (inputs.MC_GRID, 2, 10_000, 2),
}


def make_workload(name: str, package, seed: int, work: Path):
    if name == "desk-pipeline":
        return Desk(package, seed, work)
    reference = json.loads((Path(__file__).parent / "references.json").read_text(encoding="utf-8"))
    return MonteCarlo(package, seed, work, *MONTE_CARLO[name], reference[name])


def speed_adjusted(passes: list[dict], key: str = "wall_s") -> float:
    """Median over passes of ``key`` scaled to the reference machine speed.

    The host's speed drifts by a quarter and more over minutes (other
    tenants share its cores), and a timing taken alone carries that drift.
    Each pass's time is divided by the probe time taken just before it and
    multiplied by PROBE_REFERENCE_S, which cancels the drift common to both.
    """
    return statistics.median(p[key] / p["probe_s"] for p in passes) * PROBE_REFERENCE_S


def _sum_work(entry, position=None) -> float:
    return sum(w if position is None else w[position] for w in entry["work"])


def layer_metrics(totals: dict, pass_record: dict) -> dict:
    """Per-layer metrics of one traced pass; see README.md for what each should move."""
    def get(name):
        return totals.get(name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "work": []})

    sim, regression = get("simulate.sim_effect"), get("simulate.additive_regression")
    scenario = get("bias_study.run_scenario")
    tables, fits = get("odds_recovery.recover_tables"), get("odds_recovery.combined_or")
    subjects = _sum_work(sim, 1)  # iterations x N, computed from the inputs
    retries, replicates = _sum_work(scenario, 0), _sum_work(scenario, 1)
    reads = [get(f"io.{n}") for n in tracing.IO_READS]
    writes = [get(f"io.{n}") for n in tracing.IO_WRITES]
    return {
        "simulate.sim_effect.calls": sim["calls"],
        "simulate.sim_effect.self_s": sim["self_s"],
        "simulate.iterations": _sum_work(sim, 0),
        "simulate.ns_per_iteration_subject": sim["self_s"] / subjects * 1e9 if subjects else 0.0,
        "simulate.additive_regression.calls": regression["calls"],
        "simulate.additive_regression.self_s": regression["self_s"],
        "rng.substream.calls": get("rng.substream")["calls"],
        "rng.substream.self_s": get("rng.substream")["self_s"],
        "rng.derive_seed.calls": get("rng.derive_seed")["calls"],
        "bias_study.run_scenario.self_s": scenario["self_s"],
        "bias_study.run_scenario.wall_s": scenario["wall_s"] / scenario["calls"] if scenario["calls"] else 0.0,
        "bias_study.sample_standardized.self_s": get("bias_study.sample_standardized")["self_s"],
        "bias_study.perturb_study_params.self_s": get("bias_study.perturb_study_params")["self_s"],
        "bias_study.retries": retries,
        "bias_study.retry_ratio": retries / (replicates + retries) if replicates else 0.0,
        "effects.crude_effect.calls": get("effects.crude_effect")["calls"],
        "effects.crude_effect.self_us": get("effects.crude_effect")["self_s"] * 1e6,
        "effects.effect_from_d.calls": get("effects.effect_from_d")["calls"],
        "effects.effect_from_d.self_us": get("effects.effect_from_d")["self_s"] * 1e6,
        "pooling.pool_random_effects.calls": get("pooling.pool_random_effects")["calls"],
        "pooling.pool_random_effects.self_us": get("pooling.pool_random_effects")["self_s"] * 1e6,
        "odds_recovery.recover_tables.self_us": tables["self_s"] * 1e6,
        "odds_recovery.combined_or.self_us": fits["self_s"] * 1e6,
        "odds_recovery.newton_iterations": _sum_work(fits),
        # two roots tried per call (computed), candidates kept = len(result)
        "odds_recovery.feasible_ratio": _sum_work(tables) / (2 * tables["calls"]) if tables["calls"] else 0.0,
        "odds_recovery.table_mismatches": pass_record.get("mismatches", 0),
        "io.read_s": sum(e["self_s"] for e in reads),
        "io.write_s": sum(e["self_s"] for e in writes),
        "io.rows": sum(_sum_work(e) for e in reads + writes),
        "cli.self_s": get("cli.main")["self_s"],
    }


def probe_seconds(rng) -> float:
    """Wall time of a fixed piece of work that does not use the program.

    Normal draws with row reductions plus a pure-Python loop, the two kinds
    of work the workloads do.  It runs before every pass.
    """
    start = time.perf_counter()
    for _ in range(4):
        draws = rng.normal(0.0, 1.0, size=(1024, 200))
        means = draws.mean(axis=1)
        ((draws - means[:, None]) ** 2).sum(axis=1)
    total = 0
    for i in range(60_000):
        total += i * i
    return time.perf_counter() - start


def _passes(workload, run: Run, tracer: tracing.Tracer, seconds: float, minimum: int,
            trace: bool) -> list[dict]:
    """Closed-loop passes for ``seconds``; with ``trace``, every second pass is traced.

    Alternating spreads slow drifts of machine speed evenly over the traced
    and untraced passes that the tracing overhead compares.
    """
    rng = numpy.random.default_rng(0)
    passes, start = [], time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        index = len(passes)
        probe = probe_seconds(rng)
        if trace and index % 2:
            mark = len(tracer.spans)
            tracer.install()
            try:
                with tracer.span("pass"):
                    record = workload.run_pass(index, run, tracer)
            finally:
                tracer.uninstall()
            record["layers"] = layer_metrics(tracing.layer_totals(tracer.spans, mark + 1), record)
        else:
            record = workload.run_pass(index, run, tracer)
        record["probe_s"] = probe
        passes.append(record)
    return passes


def load_package(root: Path) -> dict:
    """Import addmeta from ``root/src`` and refuse any other copy."""
    sys.path.insert(0, str(root / "src"))
    import addmeta.bias_study
    import addmeta.cli
    import addmeta.io
    import numpy

    location = Path(addmeta.__file__).resolve()
    if (root / "src").resolve() not in location.parents:
        raise ImportError(f"addmeta imported from {location}, not from {root / 'src'}")
    return {"cli": addmeta.cli, "io": addmeta.io, "bias_study": addmeta.bias_study,
            "numpy_version": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--out", type=Path, required=True, help="result JSON path")
    args = parser.parse_args(argv)

    package = load_package(Path.cwd())
    workload = make_workload(args.workload, package, args.seed, args.work)
    run, tracer = Run(), tracing.Tracer()
    result = {"numpy_version": package["numpy_version"]}
    workload.warm_up(run, tracer)
    if args.trace:
        passes = _passes(workload, run, tracer, args.seconds, 4, True)
        traced = [p for p in passes if "layers" in p]
        plain = [p for p in passes if "layers" not in p]
        # median_low: an observed pass's value, so counts stay whole numbers
        layers = {name: statistics.median_low(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        result.update(per_layer=layers)
        tracer.write(args.out.with_name(args.out.stem + "-spans.json"))
    else:
        passes = _passes(workload, run, tracer, args.seconds, 3, False)
        metrics, report = workload.end_to_end(passes)
        report.update(pass_wall_s=statistics.median(p["wall_s"] for p in passes),
                      probe_s=statistics.median(p["probe_s"] for p in passes))
        result.update(end_to_end=metrics, report=report)
    result.update(passes=len(passes), pass_walls_s=[p["wall_s"] for p in passes],
                  probe_s=[p["probe_s"] for p in passes])
    workload.finish(run)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = getattr(workload, "workers", 1)
    result.update(
        attempted=run.attempted, failed=run.failed, errors=run.errors,
        maxrss_self_kb=own, maxrss_children_kb=children,
        # the largest child's peak stands for each pool worker's peak
        peak_rss_mb=(own + (workers * children if workers > 1 else 0)) / 1024.0,
    )
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
