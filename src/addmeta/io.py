"""CSV/JSON readers and writers for the batch pipeline.

All files are UTF-8 with headers, and a byte-order mark that starts an input
(as spreadsheet exports write) is skipped.  Every reader parses its rows
through ``_parse_rows``, so malformed or non-finite input raises
``ValueError`` with the path and row number, and a file without data rows
is refused.  Every writer hands rows of plain values to ``_write_csv``, which
writes each float at a configurable number of significant digits (default 6),
every other value as it is, and the file through ``write_atomic``, so that it
appears whole or not at all.

The module loads no numpy: each record type is imported in the function that
builds it, so only the runs that draw, ``mc`` and ``effect --method sim``,
load numpy.
"""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path

TYPE_CHECKING = False  # the annotations are strings, so start-up need not load typing
if TYPE_CHECKING:
    from typing import Callable, Iterable, Sequence, TextIO

    from .bias_study import BiasReport, Scenario
    from .effects import AdditiveEffect, StudySummary
    from .odds_recovery import CombinedOR, MergedTable, ORRecord
    from .pooling import MetaResult

STUDY_FIELDS = ["study_id", "m1", "m2", "m3", "sd1", "sd2", "sd3", "n1", "n2", "n3"]
EFFECT_FIELDS = ["study_id", "method", "beta", "sd_beta", "d", "g", "v_g", "seed", "iterations", "d_se"]
META_FIELDS = ["k", "g_wm", "v_wm", "tau2", "ci_lo", "ci_hi", "q", "i2"]
OR_INPUT_FIELDS = ["study_id", "label", "or", "ci_lo", "ci_hi", "m_top", "m_bottom"]
OR_OUTPUT_FIELDS = ["study_id", "or_combined", "ci_lo", "ci_hi", "pairing", "ab_distance", "iterations_used"]
BIAS_FIELDS = [
    "density", "L", "sigma_ws", "m1", "m2", "m3", "n1", "n2", "n3",
    "bias_g_crude", "bias_gwm_crude", "bias_g_sim", "bias_gwm_sim",
    "mc_se_g_crude", "mc_se_gwm_crude", "mc_se_g_sim", "mc_se_gwm_sim",
    "replicates", "inner_iterations", "seed", "truncation", "retries",
]

DEFAULT_PRECISION = 6


def _float(row, field: str) -> float:
    text = row[field]
    try:
        # a JSON true or false is a bool, which float() would read as 1 or 0
        value = math.nan if isinstance(text, bool) else float(text)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{field}: expected a finite number, got {text!r}")
    return value


def _int(row, field: str) -> int:
    value = row[field]
    if isinstance(value, int) and not isinstance(value, bool):
        return value  # a JSON integer, exactly: float() rounds it above 2**53
    value = _float(row, field)
    if not value.is_integer():
        raise ValueError(f"{field}: expected an integer, got {row[field]!r}")
    return int(value)


def _parse_rows(rows: Iterable, parse: Callable, origin, first_row: int, what: str, key: Callable) -> list:
    """Apply ``parse`` to every row; an error names ``origin`` and the row number.

    ``key`` maps a parsed record to a description that must be unique in
    the file.  No rows at all is an error too.
    """
    records, seen = [], set()
    for row_no, row in enumerate(rows, first_row):
        try:
            record = parse(row)
            tag = key(record)
            if tag in seen:
                raise ValueError(f"duplicate {tag}")
            seen.add(tag)
        except KeyError as exc:  # a JSON row only: a CSV's header check reports a missing column first
            raise ValueError(f"{origin}, row {row_no}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{origin}, row {row_no}: {exc}") from exc
        records.append(record)
    if not records:
        raise ValueError(f"{origin}: no {what} found")
    return records


def _read(path, read: Callable, refused: type[ValueError] = UnicodeDecodeError):
    """Apply ``read`` to the open file; a ``refused`` error (by default, text that is not UTF-8) names the path."""
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as handle:
            return read(handle)
    except refused as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_csv(path, fields: Sequence[str], parse: Callable, what: str, key: Callable) -> list:
    """Parse each data row of a CSV with a header that holds ``fields``."""
    def rows(handle):
        reader = csv.DictReader(handle)
        missing = [f for f in fields if f not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing} (header row is required)")
        return _parse_rows(reader, parse, path, 2, what, key)

    return _read(path, rows)


def write_atomic(path, write: Callable[[TextIO], object]) -> None:
    """Let ``write`` fill a temp file beside ``path``, then move it into place."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence], precision: int) -> None:
    """The one place where a value becomes text: a float (numpy's too) at ``precision`` digits, None as ""."""
    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([[format(v, f".{precision}g") if isinstance(v, float) else v for v in row]
                          for row in rows])

    write_atomic(path, write)


def _study_summary(row) -> StudySummary:
    from .effects import StudySummary

    if not isinstance(row, dict):  # a JSON row only: csv.DictReader gives dicts
        raise ValueError(f"expected a JSON object of study fields, got {row!r}")
    return StudySummary(
        study_id=row["study_id"],
        m=tuple(_float(row, f"m{k}") for k in "123"),
        sd=tuple(_float(row, f"sd{k}") for k in "123"),
        n=tuple(_int(row, f"n{k}") for k in "123"),
    )


def _study_id(summary: StudySummary) -> str:
    return f"study_id {summary.study_id!r}"


def read_study_summaries(path) -> list[StudySummary]:
    """Parse study summaries from CSV (or a JSON list with the same fields).

    Each ``study_id`` may appear once: it keys the study's simulation stream.
    """
    path = Path(path)
    if path.suffix.lower() != ".json":
        return _read_csv(path, STUDY_FIELDS, _study_summary, "studies", key=_study_id)
    import json

    # json.load raises ValueError for text that is not JSON and for an int past Python's digit limit
    records = _read(path, json.load, ValueError)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of study objects")
    return _parse_rows(records, _study_summary, path, 1, "studies", key=_study_id)


def write_effects(
    path,
    effects: Iterable[AdditiveEffect],
    seed: int | None = None,
    iterations: int | None = None,
    precision: int = DEFAULT_PRECISION,
) -> None:
    """Write effect rows; ``seed``, ``iterations`` and ``d_se`` fill simulation rows only."""
    _write_csv(path, EFFECT_FIELDS, [
        [eff.study_id, eff.method, eff.beta, eff.sd_beta, eff.d, eff.g, eff.v_g,
         *([seed, iterations] if eff.method == "simulation" else [None, None]), eff.d_se]
        for eff in effects
    ], precision)


def _effect(row) -> tuple[str, float, float]:
    g, v_g = _float(row, "g"), _float(row, "v_g")
    if v_g <= 0:
        raise ValueError(f"v_g: expected a positive variance, got {row['v_g']!r}")
    return str(row["study_id"]), g, v_g


def read_effects(path) -> list[tuple[str, float, float]]:
    """Read (study_id, g, v_g) triples from an effects CSV; v_g > 0 and study_id unique."""
    return _read_csv(path, ["study_id", "g", "v_g"], _effect, "effects",
                     key=lambda effect: f"study_id {effect[0]!r}")


def write_meta_result(path, result: MetaResult, precision: int = DEFAULT_PRECISION) -> None:
    _write_csv(path, META_FIELDS, [[getattr(result, name) for name in META_FIELDS]], precision)


def _or_record(row) -> tuple[str, ORRecord]:
    from .odds_recovery import ORRecord

    return str(row["study_id"]), ORRecord(
        label=row["label"],
        or_value=_float(row, "or"),
        ci_lo=_float(row, "ci_lo"),
        ci_hi=_float(row, "ci_hi"),
        m_top=_int(row, "m_top"),
        m_bottom=_int(row, "m_bottom"),
    )


def read_or_records(path) -> list[tuple[str, ORRecord, ORRecord]]:
    """Read OR-record pairs, one AB_vs_AA and one BB_vs_AB per study."""
    path = Path(path)
    records = _read_csv(path, OR_INPUT_FIELDS, _or_record, "odds-ratio records",
                        key=lambda rec: f"{rec[1].label} record for study {rec[0]!r}")
    per_study: dict[str, dict[str, ORRecord]] = {}
    for study, record in records:
        per_study.setdefault(study, {})[record.label] = record
    pairs = []
    for study, slot in per_study.items():
        missing = {"AB_vs_AA", "BB_vs_AB"} - set(slot)
        if missing:
            raise ValueError(f"{path}: study {study!r} is missing {sorted(missing)} record(s)")
        pairs.append((study, slot["AB_vs_AA"], slot["BB_vs_AB"]))
    return pairs


def write_combined_ors(
    path,
    rows: Iterable[tuple[str, MergedTable, CombinedOR]],
    precision: int = DEFAULT_PRECISION,
) -> None:
    _write_csv(path, OR_OUTPUT_FIELDS, [
        [study, combined.or_value, combined.ci_lo, combined.ci_hi,
         merged.pairing, merged.ab_distance, combined.iterations_used]
        for study, merged, combined in rows
    ], precision)


def read_scenario(path, **overrides) -> Scenario:
    """Load a Scenario from a JSON key-value config file.

    The study count is keyed ``L``.  ``overrides`` (``mc_reps``,
    ``inner_iterations``, ``seed``) replace the file's values.
    """
    import json

    from .bias_study import Scenario

    path = Path(path)
    data = _read(path, json.load, ValueError)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object of scenario settings")
    known = {"density", "L", "mean_vec", "sigma_ws", "n_triplet", "mc_reps", "inner_iterations", "seed"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"{path}: unknown scenario keys {sorted(unknown)}")
    data.update(overrides)

    def numbers(key, parse):
        if not isinstance(data[key], list):  # an object or a string would be read by its keys or characters
            raise ValueError(f"{key}: expected a JSON list of 3 numbers, got {data[key]!r}")
        # each element is parsed under a name such as "mean_vec[0]"
        items = {f"{key}[{i}]": value for i, value in enumerate(data[key])}
        return tuple(parse(items, name) for name in items)

    try:
        # an optional key left out takes the Scenario default
        optional = {key: _int(data, key) for key in ("mc_reps", "inner_iterations", "seed") if key in data}
        return Scenario(
            density=data["density"],
            n_studies=_int(data, "L"),
            mean_vec=numbers("mean_vec", _float),
            sigma_ws=_float(data, "sigma_ws"),
            n_triplet=numbers("n_triplet", _int),
            **optional,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing scenario key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_bias_reports(path, reports: Iterable[BiasReport], precision: int = DEFAULT_PRECISION) -> None:
    statistics = BIAS_FIELDS[9:17]  # bias_g_crude to mc_se_gwm_sim, each a BiasReport field
    _write_csv(path, BIAS_FIELDS, [
        [s.density, s.n_studies, s.sigma_ws, *s.mean_vec, *s.n_triplet]
        + [getattr(rep, name) for name in statistics]
        + [s.mc_reps, s.inner_iterations, s.seed, "paper", rep.retries]
        for rep in reports for s in [rep.scenario]
    ], precision)
