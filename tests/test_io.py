"""The file boundary: what the readers refuse and how outputs are written."""

import contextlib
import csv
import io as text_io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addmeta import io
from addmeta._defaults import DEFAULT_SEED
from addmeta.bias_study import BiasReport, Scenario
from addmeta.cli import main
from addmeta.effects import StudySummary, crude_effect
from addmeta.odds_recovery import combine_reported_ors

DATA = Path(__file__).parent / "data"

NUMERIC_FIELDS = io.STUDY_FIELDS[1:]

study_ids = st.text(st.characters(whitelist_categories=("L", "N", "P", "Zs")), min_size=1, max_size=8)
means = st.floats(-1e3, 1e3, allow_nan=False)
sds = st.floats(0.01, 1e3)
sizes = st.integers(2, 500)
study_rows = st.tuples(study_ids, means, means, means, sds, sds, sds, sizes, sizes, sizes)


def write_studies(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(io.STUDY_FIELDS)
        # repr gives the shortest text that parses back to the same float
        writer.writerows([row[0]] + [repr(v) for v in row[1:]] for row in rows)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(study_rows, min_size=1, max_size=4, unique_by=lambda row: row[0]),
    pick=st.data(),
    bad=st.sampled_from(["nan", "inf", "-inf", ""]),
)
def test_any_non_finite_or_empty_field_is_refused(rows, pick, bad):
    target = pick.draw(st.integers(0, len(rows) - 1), label="row")
    field = pick.draw(st.sampled_from(NUMERIC_FIELDS), label="field")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_studies(tmp / "in.csv", rows)
        lines = (tmp / "in.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cells = next(csv.reader([lines[target + 1]]))
        cells[io.STUDY_FIELDS.index(field)] = bad
        with (tmp / "in.csv").open("w", newline="", encoding="utf-8") as handle:
            handle.writelines(lines[: target + 1])
            csv.writer(handle).writerow(cells)
            handle.writelines(lines[target + 2:])
        stderr = text_io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(["effect", str(tmp / "in.csv"), "-o", str(tmp / "out.csv")]) == 1
        err = stderr.getvalue()
        assert f"row {target + 2}: {field}:" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp.iterdir()) == ["in.csv"]


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(study_rows, min_size=1, max_size=5, unique_by=lambda row: row[0]))
def test_finite_rows_round_trip_through_crude_effect(rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_studies(tmp / "in.csv", rows)
        expected = [StudySummary(row[0], row[1:4], row[4:7], row[7:]) for row in rows]
        assert io.read_study_summaries(tmp / "in.csv") == expected
        assert main(["effect", str(tmp / "in.csv"), "--precision", "17", "-o", str(tmp / "out.csv")]) == 0
        with (tmp / "out.csv").open(newline="", encoding="utf-8") as handle:
            written = list(csv.DictReader(handle))
    assert [r["study_id"] for r in written] == [row[0] for row in rows]
    for got, summary in zip(written, expected):
        effect = crude_effect(summary, standardizer="pooled")
        assert [float(got[k]) for k in ("beta", "sd_beta", "d", "g", "v_g")] == [
            effect.beta, effect.sd_beta, effect.d, effect.g, effect.v_g
        ]


@pytest.mark.parametrize("command, header, row, named", [
    ("effect", io.STUDY_FIELDS, "A,1,2,3,1,1,1,5.5,5,5", "n1:"),
    ("effect", io.STUDY_FIELDS, "A,1,2,3,1,1,1,1e400,5,5", "n1:"),
    ("effect", io.STUDY_FIELDS, f"A,1,2,3,1,1,1,{2**53 + 1},5,5",
     "A: sample sizes must be integers that a float holds exactly"),
    ("meta", ["study_id", "g", "v_g"], "a,nan,0.1", "g:"),
    ("meta", ["study_id", "g", "v_g"], "a,0.1,nan", "v_g:"),
    ("meta", ["study_id", "g", "v_g"], "a,0.1,0", "v_g:"),
    ("meta", ["study_id", "g", "v_g"], "a,0.1,-0.5", "v_g:"),
    ("or", io.OR_INPUT_FIELDS, "x,BB_vs_AB,1,0.36,2.81,inf,30", "m_top:"),
], ids=["n1-fraction", "n1-overflow", "n1-past-2**53", "g-nan", "v_g-nan", "v_g-zero", "v_g-negative",
        "m_top-inf"])
def test_invalid_numbers_exit_1_with_row_and_field(command, header, row, named, tmp_path, capsys):
    good = {"effect": "ok,1,2,3,1,1,1,5,5,5", "meta": "ok,0.2,0.1", "or": "x,AB_vs_AA,3,1.05,8.6,30,30"}
    src = tmp_path / "in.csv"
    src.write_text(",".join(header) + "\n" + good[command] + "\n" + row + "\n")
    assert main([command, str(src), "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert f"row 3: {named}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


@pytest.mark.parametrize("text, value", [(str(2**53 + 1), 2**53 + 1), ("63", 63), ("63.0", 63), ("6.3e1", 63)])
def test_integer_text_is_read_exactly_and_a_float_spelling_as_its_value(text, value):
    got = io._int({"n1": text}, "n1")
    assert type(got) is int and got == value


@pytest.mark.parametrize("precision", ["-2", "0", "six"])
def test_precision_below_one_is_a_usage_error(precision, table2_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["effect", str(table2_csv), "--precision", precision, "-o", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "positive integer" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [table2_csv.name]


def test_failure_mid_write_keeps_existing_output(table2_csv, tmp_path, monkeypatch, capsys):
    out = tmp_path / "o.csv"
    manifest = tmp_path / "o.csv.manifest.json"
    assert main(["effect", str(table2_csv), "-o", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, handle):
            self.writer = real_writer(handle)

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            self.writer.writerow(rows[0])
            raise OSError("disk full")

    monkeypatch.setattr(io.csv, "writer", FailingWriter)
    assert main(["effect", str(table2_csv), "--precision", "12", "-o", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert set(before) == {table2_csv.name, out.name, manifest.name}


def test_manifest_options_record_every_parsed_option(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "density": "f1", "L": 5, "mean_vec": [4, 5.5, 7],
        "sigma_ws": 5.0, "n_triplet": [10, 15, 5], "mc_reps": 2, "inner_iterations": 20,
    }))
    out = tmp_path / "bias.csv"
    assert main(["mc", str(config), "--seed", "4", "-o", str(out)]) == 0
    manifest = json.loads((tmp_path / "bias.csv.manifest.json").read_text())
    assert manifest["command"] == "mc"
    assert manifest["output"] == str(out)
    assert manifest["options"] == {
        "input": str(config), "full_grid": False, "reps": None, "inner_iterations": None,
        "seed": 4, "workers": 1, "precision": 6,
    }


SCENARIO = ('{"density": "f1", "L": 5, "mean_vec": [4, 5.5, 7], "sigma_ws": 5.0, '
            '"n_triplet": [10, 15, 5], "inner_iterations": 20, ')


@pytest.mark.parametrize("setting, key", [
    ('"mc_reps": 1e400', "mc_reps"),
    ('"mc_reps": 2.7', "mc_reps"),
    ('"mc_reps": 1', "mc_reps"),
    ('"mc_reps": "many"', "mc_reps"),
    ('"seed": NaN', "seed"),
    ('"mc_reps": 2, "mean_vec": [4, "x", 7]', "mean_vec[1]"),
    ('"mc_reps": 2, "n_triplet": [10, 15.5, 5]', "n_triplet[1]"),
    ('"mc_reps": 2, "L": 1e400', "L"),
    ('"mc_reps": 2, "seed": -1', "seed"),
    ('"mc_reps": 2, "seed": true', "seed"),
    ('"mc_reps": 2, "sigma_ws": true', "sigma_ws"),
    ('"mc_reps": 2, "mean_vec": {"4": 0, "5.5": 0, "7": 0}, "n_triplet": {"10": "a", "15": "b", "5": "c"}',
     "mean_vec: expected a JSON list of 3 numbers, got {'4': 0, '5.5': 0, '7': 0}"),
    ('"mc_reps": 2, "n_triplet": {"10": "a", "15": "b", "5": "c"}', "n_triplet: expected a JSON list"),
    ('"mc_reps": 2, "mean_vec": "4"', "mean_vec: expected a JSON list of 3 numbers, got '4'"),
    ('"mc_reps": 2, "mean_vec": null', "mean_vec: expected a JSON list of 3 numbers, got None"),
    ('"mc_reps": 2, "n_triplet": 5', "n_triplet: expected a JSON list of 3 numbers, got 5"),
])
def test_invalid_scenario_numbers_exit_1_with_path_and_key(setting, key, tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(SCENARIO + setting + "}")
    assert main(["mc", str(config), "-o", str(tmp_path / "bias.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{config}: {key}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_seed_above_two_to_the_53_reaches_the_csv_unchanged(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(SCENARIO + '"mc_reps": 2}')
    out = tmp_path / "bias.csv"
    assert main(["mc", str(config), "--seed", "9007199254740993", "-o", str(out)]) == 0
    with out.open(newline="") as handle:
        assert [row["seed"] for row in csv.DictReader(handle)] == ["9007199254740993"]


def test_one_replicate_from_the_command_line_is_refused(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(SCENARIO + '"mc_reps": 4}')
    assert main(["mc", str(config), "--reps", "1", "-o", str(tmp_path / "bias.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{config}: mc_reps must be an integer >= 2, got 1" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_one_inner_iteration_from_the_command_line_is_refused(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(SCENARIO + '"mc_reps": 4}')
    assert main(["mc", str(config), "--inner-iterations", "1", "-o", str(tmp_path / "bias.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{config}: inner_iterations must be an integer >= 2, got 1" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("command, name, text, message", [
    ("mc", "scenario.json", "[5, 10]", ": expected a JSON object of scenario settings"),
    ("mc", "scenario.json", '{"L": 5, "mean_vec": [4, 5.5, 7], "sigma_ws": 5.0, "n_triplet": [10, 15, 5]}',
     ": missing scenario key 'density'"),
    ("effect", "in.csv", "study_id,m1,m2,m3,sd1,sd2,sd3,n1,n2\nA,1,2,3,1,1,1,5,5\n",
     ": missing required columns ['n3']"),
    ("effect", "in.json", '{"study_id": "A"}', ": expected a JSON list of study objects"),
    ("effect", "in.json", "[5]", ", row 1: expected a JSON object of study fields, got 5"),
    ("effect", "in.json", '[{"study_id": "A", "m1": 1, "m2": 2, "m3": 3, "sd1": 1, "sd2": 1, "sd3": 1, "n1": 5, '
     '"n2": 5}]', ", row 1: missing field 'n3'"),
], ids=["scenario-not-an-object", "scenario-without-density", "csv-missing-column", "json-not-a-list",
        "json-row-not-an-object", "json-row-without-n3"])
def test_malformed_input_file_exits_1_with_path(command, name, text, message, tmp_path, capsys):
    src = tmp_path / name
    src.write_text(text)
    assert main([command, str(src), "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{src}{message}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def assert_floats_at_two_digits(path, exact) -> None:
    """Each row's cells named in its ``exact`` dict read as given; every other number has <= 2 digits.

    An integer column written as a float would read 2e+07 for the seed, so the
    integers asked for here are the ones two significant digits would round.
    """
    text_columns = {"study_id", "method", "density", "pairing", "truncation"}
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(exact)
    for row, expected in zip(rows, exact):
        assert {name: row[name] for name in expected} == expected
        for name, text in row.items():
            if name not in expected and name not in text_columns:
                mantissa = text.partition("e")[0].lstrip("-").replace(".", "").lstrip("0")
                assert len(mantissa) <= 2 and np.isfinite(float(text)), (name, text)


def test_precision_rounds_every_float_column_and_no_integer_column(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"density": "f1", "L": 5, "mean_vec": [4, 5.5, 11], "sigma_ws": 1,
                                    "n_triplet": [150, 200, 120]}))
    ors = [combine_reported_ors(ab, bb)[1] for _, ab, bb in io.read_or_records(DATA / "or_records.csv")]
    runs = {
        "effect": (["effect", DATA / "table2_cohorts.csv"], 3 * [{"seed": "", "iterations": "", "d_se": ""}]),
        "effect-sim": (["effect", DATA / "table2_cohorts.csv", "--method", "sim", "--iterations", "1234"],
                       3 * [{"seed": str(DEFAULT_SEED), "iterations": "1234"}]),
        "meta": (["meta", DATA / "table2_effect_sim.csv"], [{"k": "3"}]),
        "or": (["or", DATA / "or_records.csv"], [{"iterations_used": str(fit.iterations_used)} for fit in ors]),
        "mc": (["mc", scenario, "--reps", "123", "--inner-iterations", "345"],
               [{"L": "5", "n1": "150", "n2": "200", "n3": "120", "replicates": "123",
                 "inner_iterations": "345", "seed": str(DEFAULT_SEED), "retries": "0"}]),
    }
    for name, (argv, exact) in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main([*map(str, argv), "--precision", "2", "-o", str(out)]) == 0
        assert_floats_at_two_digits(out, exact)


def test_numpy_integers_of_a_bias_report_are_written_exactly(tmp_path):
    scenario = Scenario(density="f2", n_studies=np.int64(15), mean_vec=(np.float64(4), 5.5, 11), sigma_ws=5,
                        n_triplet=(np.int32(150), np.int64(200), np.uint16(120)), mc_reps=np.int64(123),
                        inner_iterations=np.int32(345), seed=np.uint64(DEFAULT_SEED))
    statistics = [np.float64(k) / 3 for k in range(1, 9)]
    out = tmp_path / "bias.csv"
    io.write_bias_reports(out, [BiasReport(scenario, *statistics, retries=np.int64(250))], precision=2)
    assert_floats_at_two_digits(out, [{
        "density": "f2", "L": "15", "sigma_ws": "5", "m1": "4", "m2": "5.5", "m3": "11", "n1": "150",
        "n2": "200", "n3": "120", "replicates": "123", "inner_iterations": "345", "seed": str(DEFAULT_SEED),
        "retries": "250", **{name: format(v, ".2g") for name, v in zip(io.BIAS_FIELDS[9:17], statistics)},
    }])
