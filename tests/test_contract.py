"""The command-line contract of ``addmeta or`` on edited copies of valid input.

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

with open(DATA / "or_records.csv", newline="", encoding="utf-8") as _handle:
    HEADER, *RECORDS = list(csv.reader(_handle))
STUDIES = sorted({row[0] for row in RECORDS})
FIELD = {name: i for i, name in enumerate(HEADER)}
TEXT_COLUMNS = ("study_id", "pairing")

EDGE_VALUES = ["", "nan", "inf", "-inf", "1e-320", "1e308", str(2**53 + 1), str(10**400)]


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


def edge_value(row, draw):
    field = draw(st.sampled_from(["study_id", "label", "or", "ci_lo", "ci_hi", "m_top", "m_bottom"]))
    row[FIELD[field]] = draw(st.sampled_from(EDGE_VALUES))


ROW_EDITS = [swap_ci, or_outside_ci, zero_margin, unknown_label, edge_value]


@st.composite
def or_inputs(draw):
    """Rows of one to three valid studies, then up to three edits: a field, a dropped or a repeated row."""
    studies = draw(st.lists(st.sampled_from(STUDIES), min_size=1, max_size=3, unique=True))
    rows = [list(row) for row in RECORDS if row[0] in studies]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from([*ROW_EDITS, "drop", "repeat"]))
        if edit == "drop":
            del rows[at]
        elif edit == "repeat":
            rows.insert(at, list(rows[at]))
        else:
            edit(rows[at], draw)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=or_inputs())
def test_or_exits_0_with_finite_floats_or_1_with_one_line(rows):
    with tempfile.TemporaryDirectory() as tmp:
        src, out_dir = Path(tmp, "ors.csv"), Path(tmp, "out")
        out_dir.mkdir()
        with src.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([HEADER, *rows])
        out = out_dir / "combined.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["or", str(src), "--precision", "17", "-o", str(out)])
        if code == 0:
            assert stderr.getvalue() == ""
            assert sorted(p.name for p in out_dir.iterdir()) == ["combined.csv", "combined.csv.manifest.json"]
            with out.open(newline="", encoding="utf-8") as handle:
                written = list(csv.DictReader(handle))
            assert written
            for row in written:
                for name, cell in row.items():
                    assert name in TEXT_COLUMNS or math.isfinite(float(cell)), (name, cell)
        else:
            assert code == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert list(out_dir.iterdir()) == []
