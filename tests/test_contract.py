"""The command-line contract of ``addmeta effect``, ``meta`` and ``or`` on edited copies of valid input.

Whatever the input, a run exits 0 with every float cell finite and a manifest
beside the CSV, or exits 1 with one line on stderr and neither file; no
exception leaves ``cli.main``.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from addmeta import cli

DATA = Path(__file__).parent / "data"


def _read(name):
    with open(DATA / name, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


HEADER, RECORDS = _read("or_records.csv")
FIELD = {name: i for i, name in enumerate(HEADER)}
STUDY_HEADER, STUDIES = _read("table2_cohorts.csv")
EFFECT_HEADER, EFFECTS = _read("table2_effect_sim.csv")

EDGE_VALUES = ["", "nan", "inf", "-inf", "1e-320", "1e308", str(2**53 + 1), str(10**400)]


def edge_value(*fields):
    """An edit that puts an edge value into one of the columns ``fields`` (indexes)."""
    def edit(row, draw):
        row[draw(st.sampled_from(fields))] = draw(st.sampled_from(EDGE_VALUES))
    return edit


def swap_ci(row, draw):
    row[FIELD["ci_lo"]], row[FIELD["ci_hi"]] = row[FIELD["ci_hi"]], row[FIELD["ci_lo"]]


def or_outside_ci(row, draw):
    bound = row[FIELD[draw(st.sampled_from(["ci_lo", "ci_hi"]))]]
    if bound:  # an earlier edit may have emptied it
        row[FIELD["or"]] = repr(float(bound) * draw(st.sampled_from([0.5, 2.0])))


def zero_margin(row, draw):
    row[FIELD[draw(st.sampled_from(["m_top", "m_bottom"]))]] = "0"


def unknown_label(row, draw):
    row[FIELD["label"]] = draw(st.sampled_from(["AA_vs_BB", "ab_vs_aa", ""]))


OR_EDITS = [swap_ci, or_outside_ci, zero_margin, unknown_label, edge_value(*range(len(HEADER)))]
STUDY_EDITS = [edge_value(*range(len(STUDY_HEADER)))]
# meta reads only these three columns of an effects file
EFFECT_EDITS = [edge_value(*(EFFECT_HEADER.index(name) for name in ("study_id", "g", "v_g")))]


@st.composite
def edited_rows(draw, records, edits):
    """Rows of one to three valid studies, then up to three edits: a field, a dropped or a repeated row."""
    studies = draw(st.lists(st.sampled_from(sorted({row[0] for row in records})),
                            min_size=1, max_size=3, unique=True))
    rows = [list(row) for row in records if row[0] in studies]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from([*edits, "drop", "repeat"]))
        if edit == "drop":
            del rows[at]
        elif edit == "repeat":
            rows.insert(at, list(rows[at]))
        else:
            edit(rows[at], draw)
    return rows


def assert_contract(command, header, rows, flags=(), may_be_text=lambda name, row: False):
    """Run ``command`` on ``rows`` in-process; check the exit, stderr and the files it leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out_dir = Path(tmp, "in.csv"), Path(tmp, "out")
        out_dir.mkdir()
        with src.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *rows])
        out = out_dir / "out.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, str(src), *flags, "--precision", "17", "-o", str(out)])
        if code == 0:
            assert stderr.getvalue() == ""
            assert sorted(p.name for p in out_dir.iterdir()) == ["out.csv", "out.csv.manifest.json"]
            with out.open(newline="", encoding="utf-8") as handle:
                written = list(csv.DictReader(handle))
            assert written
            for row in written:
                for name, cell in row.items():
                    assert may_be_text(name, row) or math.isfinite(float(cell)), (name, cell)
        else:
            assert code == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert list(out_dir.iterdir()) == []


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=edited_rows(RECORDS, OR_EDITS))
def test_or_exits_0_with_finite_floats_or_1_with_one_line(rows):
    assert_contract("or", HEADER, rows, may_be_text=lambda name, row: name in ("study_id", "pairing"))


def _effect_text(name, row):
    # a crude row leaves the simulation's seed, iterations and Monte Carlo SE empty
    return name in ("study_id", "method") or (row["method"] == "crude" and row[name] == ""
                                              and name in ("seed", "iterations", "d_se"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=edited_rows(STUDIES, STUDY_EDITS),
    flags=st.one_of(
        st.sampled_from(["pooled", "pair-mean"]).map(lambda s: ("--method", "crude", "--standardizer", s)),
        st.integers(2, 50).map(lambda k: ("--method", "sim", "--iterations", str(k))),
    ),
)
def test_effect_exits_0_with_finite_floats_or_1_with_one_line(rows, flags):
    assert_contract("effect", STUDY_HEADER, rows, flags, _effect_text)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=edited_rows(EFFECTS, EFFECT_EDITS))
def test_meta_exits_0_with_finite_floats_or_1_with_one_line(rows):
    assert_contract("meta", EFFECT_HEADER, rows)
