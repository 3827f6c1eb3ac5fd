"""Command-line surface: effect sizes, pooling, bias study, OR recovery.

Every successful run writes a JSON manifest of its parsed options next to
the output file; both are written whole or not at all.  The same command
with the same inputs reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import io
from ._rng import EFFECT_STUDY, derive_seed
from .bias_study import full_grid, run_scenario
from .effects import crude_effect
from .odds_recovery import combine_reported_ors
from .pooling import pool_random_effects
from .simulate import DEFAULT_ITERATIONS, DEFAULT_SEED, SimConfig, sim_effect


def _study_key(study_id: str) -> int:
    """An integer key that is a one-to-one function of ``study_id``."""
    return int.from_bytes(b"\x01" + study_id.encode("utf-8"), "big")


def _int_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {what}, got {text!r}")
    return value


_positive_int = partial(_int_at_least, low=1, what="positive integer")
_non_negative_int = partial(_int_at_least, low=0, what="non-negative integer")
# one draw has no Monte Carlo SE for the d_se column
_iteration_count = partial(_int_at_least, low=2, what="number of iterations >= 2")


def _write_manifest(args) -> None:
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "output")}
    manifest = {
        "command": args.command,
        "options": options,
        "output": str(args.output),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    io.write_atomic(str(args.output) + ".manifest.json", lambda handle: handle.write(text))


def _cmd_effect(args) -> None:
    summaries = io.read_study_summaries(args.input)
    if args.method == "crude":
        effects = [crude_effect(s, standardizer=args.standardizer) for s in summaries]
    else:
        # each study's stream is keyed by its id, so it does not depend on the other rows
        effects = [
            sim_effect(s, SimConfig(
                iterations=args.iterations,
                seed=derive_seed(args.seed, EFFECT_STUDY, _study_key(s.study_id)),
            ))
            for s in summaries
        ]
    io.write_effects(args.output, effects, args.seed, args.iterations, args.precision)


def _cmd_meta(args) -> None:
    effects = io.read_effects(args.input)
    try:
        result = pool_random_effects([(g, v) for _, g, v in effects])
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    io.write_meta_result(args.output, result, args.precision)


def _cmd_mc(args) -> None:
    # the flags given replace the config's values (or the grid's defaults); Scenario checks them
    given = {"mc_reps": args.reps, "inner_iterations": args.inner_iterations, "seed": args.seed}
    overrides = {key: value for key, value in given.items() if value is not None}
    if args.full_grid == (args.input is not None):
        raise ValueError("give a scenario config file or --full-grid, not both")
    if args.full_grid:
        scenarios = full_grid(**overrides)
    else:
        scenarios = [io.read_scenario(args.input, **overrides)]
    reports = [run_scenario(s, workers=args.workers) for s in scenarios]
    io.write_bias_reports(args.output, reports, args.precision)


def _cmd_or(args) -> None:
    rows = []
    for study, ab, bb in io.read_or_records(args.input):
        try:
            rows.append((study, *combine_reported_ors(ab, bb)))
        except (ValueError, RuntimeError) as exc:
            raise ValueError(f"{args.input}: study {study!r}: {exc}") from exc
    io.write_combined_ors(args.output, rows, args.precision)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addmeta",
        description="Meta-analysis of genetic association studies under the additive model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", type=Path, required=True, help="output CSV path")
        p.add_argument("--precision", type=_positive_int, default=io.DEFAULT_PRECISION,
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
    p_effect.add_argument("--iterations", type=_iteration_count, default=DEFAULT_ITERATIONS)
    p_effect.add_argument("--seed", type=_non_negative_int, default=DEFAULT_SEED)
    p_effect.add_argument("--workers", type=_positive_int, default=1,
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
    p_mc.add_argument("--seed", type=_non_negative_int, default=None)
    p_mc.add_argument("--full-grid", action="store_true",
                      help="run every scenario cell instead of a single config")
    p_mc.add_argument("--workers", type=_positive_int, default=1,
                      help="threads for the Monte Carlo replicates (default 1); "
                      "results do not depend on it")
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
        args.func(args)
        _write_manifest(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
