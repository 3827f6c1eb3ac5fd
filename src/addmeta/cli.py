"""Command-line surface: effect sizes, pooling, bias study, OR recovery.

Every successful run writes a JSON manifest next to the output file; the
same command with the same inputs reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import io
from ._rng import derive_seed
from .bias_study import (
    DEFAULT_INNER_ITERATIONS,
    DEFAULT_REPLICATES,
    DENSITIES,
    MEAN_VECTORS,
    N_TRIPLETS,
    SIGMA_WS_VALUES,
    STUDY_COUNTS,
    Scenario,
    run_scenario,
)
from .effects import crude_effect
from .odds_recovery import combine_reported_ors
from .pooling import pool_random_effects
from .simulate import DEFAULT_ITERATIONS, DEFAULT_SEED, SimConfig, sim_effect

EFFECT_ROW_STREAM = 401


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _write_manifest(output: Path, command: str, options: dict) -> None:
    manifest = {
        "command": command,
        "options": options,
        "output": str(output),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    Path(str(output) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cmd_effect(args) -> int:
    summaries = io.read_study_summaries(args.input)
    if not summaries:
        raise ValueError(f"{args.input}: no studies found")
    effects = []
    for idx, summary in enumerate(summaries):
        if args.method == "crude":
            effects.append(crude_effect(summary, standardizer=args.standardizer))
        else:
            seed = derive_seed(args.seed, EFFECT_ROW_STREAM, idx)
            effects.append(sim_effect(summary, SimConfig(iterations=args.iterations, seed=seed)))
    io.write_effects(
        args.output,
        effects,
        seed=args.seed if args.method == "sim" else None,
        iterations=args.iterations if args.method == "sim" else None,
        precision=args.precision,
    )
    _write_manifest(
        args.output,
        "effect",
        {
            "input": str(args.input),
            "method": args.method,
            "standardizer": args.standardizer,
            "iterations": args.iterations,
            "seed": args.seed,
            "workers": args.workers,
            "precision": args.precision,
        },
    )
    return 0


def _cmd_meta(args) -> int:
    rows = io.read_effects(args.input)
    if not rows:
        raise ValueError(f"{args.input}: no effects found")
    result = pool_random_effects([(g, v) for _, g, v in rows])
    io.write_meta_result(args.output, result, precision=args.precision)
    _write_manifest(args.output, "meta", {"input": str(args.input), "precision": args.precision})
    return 0


def _full_grid(reps, inner, seed, truncation):
    for density in DENSITIES:
        for n_studies in STUDY_COUNTS:
            for sigma_ws in SIGMA_WS_VALUES:
                for mean_vec in MEAN_VECTORS:
                    for n_triplet in N_TRIPLETS:
                        yield Scenario(
                            density=density,
                            n_studies=n_studies,
                            mean_vec=mean_vec,
                            sigma_ws=sigma_ws,
                            n_triplet=n_triplet,
                            mc_reps=reps,
                            inner_iterations=inner,
                            seed=seed,
                            truncation=truncation,
                        )


def _cmd_mc(args) -> int:
    if args.full_grid:
        scenarios = list(
            _full_grid(
                args.reps or DEFAULT_REPLICATES,
                args.inner_iterations or DEFAULT_INNER_ITERATIONS,
                args.seed if args.seed is not None else Scenario.seed,
                args.truncation or "paper",
            )
        )
    else:
        if args.input is None:
            raise ValueError("a scenario config file is required unless --full-grid is given")
        scenarios = [
            io.read_scenario(
                args.input,
                mc_reps=args.reps,
                inner_iterations=args.inner_iterations,
                seed=args.seed,
                truncation=args.truncation,
            )
        ]
    reports = [run_scenario(s, workers=args.workers) for s in scenarios]
    io.write_bias_reports(args.output, reports, precision=args.precision)
    _write_manifest(
        args.output,
        "mc",
        {
            "input": str(args.input) if args.input else None,
            "full_grid": args.full_grid,
            "reps": args.reps,
            "inner_iterations": args.inner_iterations,
            "seed": args.seed,
            "truncation": args.truncation,
            "workers": args.workers,
            "precision": args.precision,
        },
    )
    return 0


def _cmd_or(args) -> int:
    pairs = io.read_or_records(args.input)
    if not pairs:
        raise ValueError(f"{args.input}: no odds-ratio records found")
    rows = []
    for study, ab_record, bb_record in pairs:
        merged, combined = combine_reported_ors(ab_record, bb_record)
        rows.append((study, merged, combined))
    io.write_combined_ors(args.output, rows, precision=args.precision)
    _write_manifest(args.output, "or", {"input": str(args.input), "precision": args.precision})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addmeta",
        description="Meta-analysis of genetic association studies under the additive model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through the same type check as a given value
    workers_default = os.environ.get("ADDMETA_WORKERS") or "1"

    def common(p):
        p.add_argument("-o", "--output", type=Path, required=True, help="output CSV path")
        p.add_argument("--precision", type=int, default=io.DEFAULT_PRECISION,
                       help="significant digits for floats (default 6)")

    p_effect = sub.add_parser("effect", help="per-study additive effect sizes from a summary CSV")
    p_effect.add_argument("input", type=Path, help="StudySummary CSV (or JSON) file")
    p_effect.add_argument("--method", choices=["crude", "sim"], default="crude")
    p_effect.add_argument(
        "--standardizer",
        choices=["pooled", "pair-mean"],
        default="pooled",
        help="crude-method standardizer: three-group pooled SD (default, the published "
        "real-data convention) or the mean of the two pairwise pooled SDs",
    )
    p_effect.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p_effect.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_effect.add_argument("--workers", type=_positive_int, default=workers_default,
                          help="accepted for symmetry with mc; has no effect on effect")
    common(p_effect)
    p_effect.set_defaults(func=_cmd_effect)

    p_meta = sub.add_parser("meta", help="pool an effects CSV with the random-effects model")
    p_meta.add_argument("input", type=Path, help="AdditiveEffect CSV file")
    common(p_meta)
    p_meta.set_defaults(func=_cmd_meta)

    p_mc = sub.add_parser("mc", help="run the Monte Carlo bias study")
    p_mc.add_argument("input", type=Path, nargs="?", help="scenario config JSON file")
    p_mc.add_argument("--reps", type=int, default=None, help="override replicate count")
    p_mc.add_argument("--inner-iterations", type=int, default=None,
                      help="override simulation iterations per study")
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--truncation", choices=["paper", "per-group"], default=None)
    p_mc.add_argument("--full-grid", action="store_true",
                      help="run every scenario cell instead of a single config")
    p_mc.add_argument("--workers", type=_positive_int, default=workers_default,
                      help="processes for the Monte Carlo replicates (default: "
                      "ADDMETA_WORKERS or 1); results do not depend on it")
    common(p_mc)
    p_mc.set_defaults(func=_cmd_mc)

    p_or = sub.add_parser("or", help="recover combined additive-model odds ratios")
    p_or.add_argument("input", type=Path, help="OR records CSV file")
    common(p_or)
    p_or.set_defaults(func=_cmd_or)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
