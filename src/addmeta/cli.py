"""Command-line surface: effect sizes, pooling, bias study, OR recovery.

Every successful run writes a JSON manifest of its parsed options and of the
addmeta and Python versions next to the output file, both whole or not at
all; the runs that draw random numbers, ``mc`` and ``effect --method sim``,
record the numpy version too.  The same command, inputs and numpy reproduce
the output byte for byte.  Each command imports the modules it computes with
when it runs, so only those two runs load numpy: starting the CLI, ``meta``,
``or`` and a crude ``effect`` load none.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import __version__, io
from ._defaults import DEFAULT_ITERATIONS, DEFAULT_SEED


def _positive_int(text: str) -> int:
    """``--precision`` and ``effect --workers``: the flags that no library type checks."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _write_manifest(args) -> None:
    import json
    from datetime import datetime, timezone

    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "output")}
    versions = {"addmeta": __version__, "python": sys.version.split()[0]}
    if args.command == "mc" or vars(args).get("method") == "sim":  # the runs that draw
        import numpy

        versions["numpy"] = numpy.__version__
    manifest = {
        "command": args.command,
        "options": options,
        "output": str(args.output),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "versions": versions,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    io.write_atomic(str(args.output) + ".manifest.json", lambda handle: handle.write(text))


def _cmd_effect(args) -> None:
    from .effects import SimConfig, crude_effect

    config = SimConfig(iterations=args.iterations, seed=args.seed)  # a crude run refuses what sim would
    summaries = io.read_study_summaries(args.input)
    try:
        if args.method == "crude":
            effects = [crude_effect(s, standardizer=args.standardizer) for s in summaries]
        else:
            from .simulate import sim_effect

            effects = [sim_effect(s, config) for s in summaries]
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    io.write_effects(args.output, effects, args.seed, args.iterations, args.precision)


def _cmd_meta(args) -> None:
    from .pooling import pool_random_effects

    effects = io.read_effects(args.input)
    try:
        result = pool_random_effects([(g, v) for _, g, v in effects])
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    io.write_meta_result(args.output, result, args.precision)


def _cmd_mc(args) -> None:
    from .bias_study import full_grid, run_scenario

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
    from .odds_recovery import combine_reported_ors

    rows = []
    for study, ab, bb in io.read_or_records(args.input):
        try:
            rows.append((study, *combine_reported_ors(ab, bb)))
        except ValueError as exc:
            raise ValueError(f"{args.input}: study {study!r}: {exc}") from exc
    io.write_combined_ors(args.output, rows, args.precision)


@cache  # parse_args leaves the parser as it was, so one build serves every main call
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
    p_effect.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p_effect.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--full-grid", action="store_true",
                      help="run every scenario cell instead of a single config")
    p_mc.add_argument("--workers", type=int, default=1,
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
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        try:
            _write_manifest(args)
        except BaseException:
            # the output and its manifest appear both or neither
            args.output.unlink(missing_ok=True)
            raise
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # a MemoryError raised by Python itself carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
