"""End-to-end command-line behaviour."""

import codecs
import csv
import importlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import addmeta
from addmeta import bias_study, cli, simulate
from addmeta.bias_study import (
    DENSITIES,
    MEAN_VECTORS,
    N_TRIPLETS,
    SIGMA_WS_VALUES,
    STUDY_COUNTS,
    full_grid,
    perturb_study_params,
)
from addmeta._defaults import DEFAULT_SEED
from addmeta.cli import main
from addmeta._rng import MC_PARAMS, substream
from addmeta.odds_recovery import ORRecord, combine_reported_ors


DATA = Path(__file__).parent / "data"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# each command's output at --precision 17, as pinned in tests/data: effect on the
# Table-2 cohorts with each standardizer and the simulation, meta on the last, mc
# on one scenario per density and on every cell of the grid, and or on the worked
# example, tables the OR fit tests fit and the 60 studies of the benchmark's seed 1
@pytest.mark.parametrize("argv, pinned", [
    (["effect", DATA / "table2_cohorts.csv", "--standardizer", "pooled"], "table2_effect_pooled.csv"),
    (["effect", DATA / "table2_cohorts.csv", "--standardizer", "pair-mean"], "table2_effect_pair_mean.csv"),
    (["effect", DATA / "table2_cohorts.csv", "--method", "sim", "--iterations", "500", "--seed", "7"],
     "table2_effect_sim.csv"),
    (["meta", DATA / "table2_effect_sim.csv"], "table2_meta_sim.csv"),
    *[(["mc", DATA / f"mc_{fid}_scenario.json", "--workers", "1"], f"mc_{fid}_workers1.csv")
      for fid in ("f1", "f2", "f3", "f4")],
    (["mc", "--full-grid", "--reps", "2", "--inner-iterations", "2"], "full_grid_reps2_iter2.csv"),
    (["or", DATA / "or_records.csv"], "or_combined.csv"),
], ids=["effect-pooled", "effect-pair-mean", "effect-sim", "meta-sim", "mc-f1", "mc-f2", "mc-f3", "mc-f4",
        "mc-full-grid", "or"])
def test_output_bytes_match_the_pinned_file(argv, pinned, tmp_path):
    out = tmp_path / pinned
    assert main([*map(str, argv), "--precision", "17", "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / pinned).read_bytes()


@pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
def test_one_cell_writes_its_row_of_the_full_grid(fid, tmp_path):
    # a cell's result does not depend on the other cells of the run
    out = tmp_path / "cell.csv"
    assert main(["mc", str(DATA / f"mc_{fid}_scenario.json"), "--reps", "2", "--inner-iterations", "2",
                 "--seed", "20270405", "--precision", "17", "-o", str(out)]) == 0
    header, row = out.read_text().splitlines()
    grid_header, *grid_rows = (DATA / "full_grid_reps2_iter2.csv").read_text().splitlines()
    # the first nine columns (density, L, sigma_ws, m1-m3, n1-n3) name the cell
    key = row.split(",")[:9]
    (grid_row,) = [line for line in grid_rows if line.split(",")[:9] == key]
    assert (header, row) == (grid_header, grid_row)


def test_package_namespace_holds_one_entry_point_per_step():
    assert sorted(addmeta.__all__) == [
        "ORRecord", "Scenario", "SimConfig", "StudySummary", "combine_reported_ors", "crude_beta",
        "crude_effect", "pool_random_effects", "run_scenario", "sim_effect",
    ]
    assert all(hasattr(addmeta, name) for name in addmeta.__all__)


@pytest.mark.parametrize("name, module", [
    ("ORRecord", "odds_recovery"), ("Scenario", "bias_study"), ("SimConfig", "effects"),
    ("StudySummary", "effects"), ("combine_reported_ors", "odds_recovery"), ("crude_beta", "effects"),
    ("crude_effect", "effects"), ("pool_random_effects", "pooling"), ("run_scenario", "bias_study"),
    ("sim_effect", "simulate"),
])
def test_package_name_is_the_submodule_object(name, module):
    assert getattr(addmeta, name) is getattr(importlib.import_module(f"addmeta.{module}"), name)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        addmeta.no_such_name


# runs the CLI in a fresh interpreter and prints, last on stderr, the addmeta
# modules it loaded and whether it loaded numpy
FRESH_CLI = """
import sys
import addmeta.cli
try:
    status = addmeta.cli.main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
loaded = sorted(name[len("addmeta."):] for name in sys.modules if name.startswith("addmeta."))
print(" ".join(loaded), "numpy" in sys.modules, file=sys.stderr)
sys.exit(status)
"""
STARTUP_MODULES = "_defaults cli io"


def run_fresh(code: str, *args):
    """Run ``code`` in a fresh interpreter that imports this addmeta."""
    src = str(Path(addmeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, pinned, modules, loads_numpy", [
    (["--help"], None, "", False),
    (["meta", DATA / "table2_effect_sim.csv"], "table2_meta_sim.csv", "pooling", False),
    (["or", DATA / "or_records.csv"], "or_combined.csv", "odds_recovery pooling", False),
    (["effect", DATA / "table2_cohorts.csv"], "table2_effect_pooled.csv", "effects", False),
    (["effect", DATA / "table2_cohorts.csv", "--method", "sim", "--iterations", "500", "--seed", "7"],
     "table2_effect_sim.csv", "_rng effects simulate", True),
], ids=["help", "meta", "or", "effect", "effect-sim"])
def test_fresh_cli_loads_numpy_only_for_the_commands_that_compute_with_it(argv, pinned, modules, loads_numpy,
                                                                           tmp_path):
    out = tmp_path / "out.csv"
    if pinned is not None:
        argv = [*argv, "--precision", "17", "-o", out]
    run = run_fresh(FRESH_CLI, *argv)
    assert run.returncode == 0, run.stderr
    *loaded, numpy_loaded = run.stderr.splitlines()[-1].split()
    assert loaded == sorted(f"{STARTUP_MODULES} {modules}".split())
    assert numpy_loaded == str(loads_numpy)
    if pinned is not None:
        assert out.read_bytes() == (DATA / pinned).read_bytes()


# a fresh interpreter that imports the CLI and builds its parser, then prints the
# modules that this loaded; modules loaded before (say by a site hook) are not counted
FRESH_STARTUP = """
import sys
before = set(sys.modules)
import addmeta.cli
addmeta.cli.build_parser()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_start_up_loads_no_json_datetime_typing_or_numpy():
    run = run_fresh(FRESH_STARTUP)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "addmeta.cli" in loaded
    assert loaded.isdisjoint({"json", "datetime", "typing", "numpy"}), loaded


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_the_cached_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    def effect(name, *flags):
        out = tmp_path / name
        assert main(["effect", str(DATA / "table2_cohorts.csv"), "--method", "sim", "--iterations", "500",
                     *flags, "--precision", "17", "-o", str(out)]) == 0
        return out

    with pytest.raises(SystemExit) as usage:
        main(["effect", "--method", "nope"])
    assert usage.value.code == 2
    capsys.readouterr()
    effect("seed3.csv", "--seed", "3")
    unseeded = effect("unseeded.csv")
    assert json.loads(Path(f"{unseeded}.manifest.json").read_text())["options"]["seed"] == DEFAULT_SEED
    assert effect("seed7.csv", "--seed", "7").read_bytes() == (DATA / "table2_effect_sim.csv").read_bytes()
    # --reps given once, then left out: the second run takes the config's mc_reps (6)
    config = DATA / "mc_f1_scenario.json"
    for name, flags, replicates in [("reps2.csv", ["--reps", "2"], "2"), ("reps6.csv", [], "6")]:
        assert main(["mc", str(config), *flags, "-o", str(tmp_path / name)]) == 0
        assert {row["replicates"] for row in read_rows(tmp_path / name)} == {replicates}


# the installed `addmeta` command's entry point, and a fresh interpreter that
# calls it as the command does with an interrupt raised while it imports the CLI
CONSOLE_SCRIPT = re.search(r'^addmeta = "(.+)"$', (Path(__file__).parents[1] / "pyproject.toml").read_text(),
                           re.MULTILINE)[1]
INTERRUPTED_IMPORT = """
import importlib
import sys

class Interrupt:
    def find_spec(self, name, path=None, target=None):
        if name == "addmeta.cli":
            raise KeyboardInterrupt

sys.meta_path.insert(0, Interrupt())
module, function = sys.argv[1].split(":")
sys.exit(getattr(importlib.import_module(module), function)())
"""


def test_interrupt_while_the_console_script_imports_the_cli_exits_130_with_one_line():
    run = run_fresh(INTERRUPTED_IMPORT, CONSOLE_SCRIPT)
    assert (run.returncode, run.stderr, run.stdout) == (130, "error: interrupted\n", "")


# a small run of each command, and of each effect method, on the inputs pinned in tests/data
QUICK_RUNS = {
    "effect": ["effect", DATA / "table2_cohorts.csv"],
    "effect-sim": ["effect", DATA / "table2_cohorts.csv", "--method", "sim", "--iterations", "2"],
    "meta": ["meta", DATA / "table2_effect_sim.csv"],
    "mc": ["mc", DATA / "mc_f1_scenario.json", "--reps", "2", "--inner-iterations", "2"],
    "or": ["or", DATA / "or_records.csv"],
}


@pytest.mark.parametrize("command", QUICK_RUNS)
def test_manifest_records_numpy_only_for_the_commands_that_compute_with_it(command, tmp_path):
    assert main([*map(str, QUICK_RUNS[command]), "-o", str(tmp_path / "out.csv")]) == 0
    versions = json.loads((tmp_path / "out.csv.manifest.json").read_text())["versions"]
    expected = {"addmeta": addmeta.__version__, "python": platform.python_version()}
    # the runs that draw random numbers
    if command in ("effect-sim", "mc"):
        expected["numpy"] = np.__version__
    assert versions == expected


def test_a_failed_manifest_write_leaves_no_output(tmp_path, capsys):
    # a directory where the manifest goes fails its write after the output is in place
    (tmp_path / "out.csv.manifest.json").mkdir()
    assert main(["effect", str(DATA / "table2_cohorts.csv"), "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv.manifest.json"]


def _study_json() -> bytes:
    """table2_cohorts.csv as the JSON list of study objects that effect also reads."""
    rows = read_rows(DATA / "table2_cohorts.csv")
    return json.dumps([{k: v if k == "study_id" else json.loads(v) for k, v in row.items()}
                       for row in rows]).encode()


# spreadsheet programs start a "CSV UTF-8" export with a byte-order mark
@pytest.mark.parametrize("command, name, data, flags, pinned", [
    ("effect", "in.csv", (DATA / "table2_cohorts.csv").read_bytes(), [], "table2_effect_pooled.csv"),
    ("effect", "in.json", _study_json(), [], "table2_effect_pooled.csv"),
    ("meta", "e.csv", (DATA / "table2_effect_sim.csv").read_bytes(), [], "table2_meta_sim.csv"),
    ("or", "ors.csv", (DATA / "or_records.csv").read_bytes(), [], "or_combined.csv"),
    ("mc", "cell.json", (DATA / "mc_f1_scenario.json").read_bytes(), ["--workers", "1"], "mc_f1_workers1.csv"),
], ids=["study-csv", "study-json", "effects-csv", "or-csv", "scenario-json"])
def test_a_leading_byte_order_mark_gives_the_pinned_bytes(command, name, data, flags, pinned, tmp_path):
    src = tmp_path / name
    src.write_bytes(codecs.BOM_UTF8 + data)
    out = tmp_path / "out.csv"
    assert main([command, str(src), *flags, "--precision", "17", "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / pinned).read_bytes()


class TestEffectCommand:
    def test_crude_matches_published_columns(self, table2_csv, tmp_path):
        out = tmp_path / "crude.csv"
        assert main(["effect", str(table2_csv), "-o", str(out)]) == 0
        rows = {r["study_id"]: r for r in read_rows(out)}
        published = {
            "SATIETY": (1.625, 8.675, 0.187),
            "EUFEST": (0.313, 5.470, 0.057),
            "ZHH-FE": (0.199, 1.965, 0.101),
        }
        for study, (beta, sd_beta, d) in published.items():
            row = rows[study]
            assert float(row["beta"]) == pytest.approx(beta, abs=0.03)
            assert float(row["sd_beta"]) == pytest.approx(sd_beta, abs=0.07)
            assert float(row["d"]) == pytest.approx(d, abs=0.015)
            assert row["method"] == "crude"
            assert row["seed"] == "" and row["iterations"] == "" and row["d_se"] == ""

    def test_pair_mean_standardizer_flag(self, table2_csv, tmp_path):
        out = tmp_path / "crude_pair.csv"
        assert main(["effect", str(table2_csv), "--standardizer", "pair-mean", "-o", str(out)]) == 0
        rows = {r["study_id"]: r for r in read_rows(out)}
        assert float(rows["SATIETY"]["sd_beta"]) == pytest.approx(8.6169, abs=1e-3)

    def test_sim_matches_published_d(self, table2_csv, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["effect", str(table2_csv), "--method", "sim",
                     "--iterations", "4000", "--seed", "11", "-o", str(out)])
        assert code == 0
        rows = {r["study_id"]: r for r in read_rows(out)}
        for study, d in (("SATIETY", 0.180), ("EUFEST", 0.136), ("ZHH-FE", 0.085)):
            assert float(rows[study]["d"]) == pytest.approx(d, abs=0.02)
            assert rows[study]["seed"] == "11"
            assert rows[study]["iterations"] == "4000"

    def test_every_sim_row_has_a_finite_positive_d_se(self, table2_csv, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["effect", str(table2_csv), "--method", "sim", "--iterations", "2", "-o", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        for row in rows:
            assert math.isfinite(float(row["d_se"])) and float(row["d_se"]) > 0, row

    def test_empty_csv_fails_with_no_studies(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("study_id,m1,m2,m3,sd1,sd2,sd3,n1,n2,n3\n")
        assert main(["effect", str(empty), "-o", str(tmp_path / "o.csv")]) == 1
        assert "no studies" in capsys.readouterr().err

    def test_row_errors_carry_row_numbers(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "study_id,m1,m2,m3,sd1,sd2,sd3,n1,n2,n3\n"
            "ok,1,2,3,1,1,1,5,5,5\n"
            "broken,1,2,3,0,1,1,5,5,5\n"
        )
        assert main(["effect", str(bad), "-o", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "row 3" in err

    def test_json_input_mirror(self, tmp_path):
        data = [dict(study_id="j", m1=4, m2=5.5, m3=7, sd1=1, sd2=1, sd3=1, n1=10, n2=10, n3=10)]
        src = tmp_path / "studies.json"
        src.write_text(json.dumps(data))
        out = tmp_path / "o.csv"
        assert main(["effect", str(src), "-o", str(out)]) == 0
        assert float(read_rows(out)[0]["beta"]) == pytest.approx(1.5)

    def test_out_of_memory_exits_1_with_one_error_line(self, table2_csv, tmp_path, monkeypatch, capsys):
        def out_of_memory(m, sd, n, iterations, rng):
            raise MemoryError  # as Python raises it, without a message

        monkeypatch.setattr(simulate, "draw_fits", out_of_memory)
        out = tmp_path / "o.csv"
        assert main(["effect", str(table2_csv), "--method", "sim", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()

    def test_rerun_is_byte_identical(self, table2_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["effect", str(table2_csv), "--method", "sim", "--iterations", "500", "--seed", "3"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sim_rows_do_not_depend_on_row_order(self, table2_csv, tmp_path):
        lines = table2_csv.read_text().splitlines(keepends=True)
        reordered = tmp_path / "reversed.csv"
        reordered.write_text("".join([lines[0]] + lines[:0:-1]))
        subset = tmp_path / "subset.csv"
        subset.write_text("".join([lines[0], lines[2]]))
        args = ["effect", "--method", "sim", "--iterations", "500", "--seed", "3"]
        outputs = []
        for name, src in (("a", table2_csv), ("b", reordered), ("c", subset)):
            out = tmp_path / f"{name}.out.csv"
            assert main(args + [str(src), "-o", str(out)]) == 0
            outputs.append(out.read_text().splitlines()[1:])
        original, reversed_rows, subset_rows = outputs
        assert reversed_rows == original[::-1]
        assert subset_rows == [original[1]]

    def test_duplicate_study_id_rejected_with_row_number(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        src.write_text(
            "study_id,m1,m2,m3,sd1,sd2,sd3,n1,n2,n3\n"
            "A,1,2,3,1,1,1,5,5,5\n"
            "A,1,2,4,1,1,1,5,5,5\n"
        )
        assert main(["effect", str(src), "-o", str(tmp_path / "o.csv")]) == 1
        assert "row 3: duplicate study_id 'A'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dup.csv"]

    def test_manifest_written(self, table2_csv, tmp_path):
        out = tmp_path / "c.csv"
        main(["effect", str(table2_csv), "-o", str(out)])
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["command"] == "effect"
        assert manifest["options"]["method"] == "crude"
        assert manifest["options"]["standardizer"] == "pooled"

    def test_precision_flag(self, table2_csv, tmp_path):
        out = tmp_path / "p.csv"
        main(["effect", str(table2_csv), "--precision", "12", "-o", str(out)])
        sd = read_rows(out)[0]["sd_beta"]
        assert len(sd.replace(".", "")) > 8  # more digits than the default 6

    def test_workers_env_override(self, table2_csv, tmp_path, monkeypatch):
        # --workers is the only worker-count setter: the environment does not reach it
        monkeypatch.setenv("ADDMETA_WORKERS", "abc")
        args = ["effect", str(table2_csv), "--method", "sim", "--iterations", "600", "--seed", "5"]
        assert main(args + ["-o", str(tmp_path / "e.csv")]) == 0
        manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
        assert manifest["options"]["workers"] == 1
        assert main(args + ["--workers", "3", "-o", str(tmp_path / "w3.csv")]) == 0
        assert main(args + ["--workers", "1", "-o", str(tmp_path / "w1.csv")]) == 0
        # worker count never changes results
        assert (tmp_path / "w3.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


class TestWorkersOption:
    @pytest.mark.parametrize("argv, message", [
        (["effect", "in.csv", "--workers", "0", "-o", "out.csv"], "--workers: expected a positive integer"),
        (["mc", "in.json", "--workers", "two", "-o", "out.csv"], "argument --workers: invalid int value: 'two'"),
        (["mc", "in.json", "--truncation", "paper", "-o", "out.csv"], "unrecognized arguments"),
    ], ids=["effect-zero", "mc-not-a-number", "mc-truncation-removed"])
    def test_invalid_flag_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("effect", "--iterations"), ("effect", "--seed"), ("mc", "--reps"), ("mc", "--inner-iterations"),
        ("mc", "--seed"), ("mc", "--workers"),
    ])
    def test_a_count_or_seed_that_is_not_integer_text_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "in", flag, "2.5", "-o", "out.csv"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int value: '2.5'" in capsys.readouterr().err

    # each count and seed is checked once, by the type that uses it: one error line, exit 1, no files
    @pytest.mark.parametrize("argv, message", [
        (["effect", DATA / "table2_cohorts.csv", "--method", "sim", "--seed", "-3"],
         "seed must be an integer >= 0, got -3"),
        (["mc", DATA / "mc_f1_scenario.json", "--seed", "-1"],
         f"{DATA / 'mc_f1_scenario.json'}: seed must be an integer >= 0, got -1"),
        (["mc", "--full-grid", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["effect", DATA / "table2_cohorts.csv", "--method", "sim", "--iterations", "1"],
         "iterations must be an integer >= 2, got 1"),
        (["effect", DATA / "table2_cohorts.csv", "--iterations", "0"], "iterations must be an integer >= 2, got 0"),
        (["mc", DATA / "mc_f1_scenario.json", "--workers", "-3"], "workers must be an integer >= 1, got -3"),
        (["mc", DATA / "mc_f1_scenario.json", "--workers", "0"], "workers must be an integer >= 1, got 0"),
    ], ids=["effect-seed-negative", "mc-seed-negative", "mc-full-grid-seed-negative", "effect-one-iteration",
            "effect-zero-iterations", "mc-negative", "mc-zero"])
    def test_a_value_below_the_minimum_exits_1_with_the_rule(self, argv, message, tmp_path, capsys):
        assert main([*map(str, argv), "-o", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestMetaCommand:
    def test_single_row_passthrough(self, tmp_path):
        effects = tmp_path / "e.csv"
        effects.write_text("study_id,g,v_g\nonly,0.5,0.04\n")
        out = tmp_path / "m.csv"
        assert main(["meta", str(effects), "-o", str(out)]) == 0
        row = read_rows(out)[0]
        assert float(row["g_wm"]) == 0.5
        assert float(row["tau2"]) == 0.0
        assert int(row["k"]) == 1

    def test_symmetric_studies_pool_to_midpoint(self, tmp_path):
        effects = tmp_path / "e.csv"
        effects.write_text("study_id,g,v_g\na,0.1,0.01\nb,0.5,0.01\n")
        out = tmp_path / "m.csv"
        assert main(["meta", str(effects), "-o", str(out)]) == 0
        row = read_rows(out)[0]
        assert float(row["g_wm"]) == pytest.approx(0.3)
        assert float(row["tau2"]) == pytest.approx(0.07)

    def test_three_study_hand_oracle(self, tmp_path):
        # hand-computed DerSimonian-Laird: w=(50,25,20); Q, tau2 from the formula
        gs, vs = [0.2, 0.5, 0.8], [0.02, 0.04, 0.05]
        w = [1 / v for v in vs]
        g_fe = sum(wi * gi for wi, gi in zip(w, gs)) / sum(w)
        q = sum(wi * (gi - g_fe) ** 2 for wi, gi in zip(w, gs))
        c = sum(w) - sum(wi**2 for wi in w) / sum(w)
        tau2 = max(0.0, (q - 2) / c)
        ws = [1 / (v + tau2) for v in vs]
        expected = sum(wi * gi for wi, gi in zip(ws, gs)) / sum(ws)
        effects = tmp_path / "e.csv"
        effects.write_text("study_id,g,v_g\na,0.2,0.02\nb,0.5,0.04\nc,0.8,0.05\n")
        out = tmp_path / "m.csv"
        assert main(["meta", str(effects), "-o", str(out)]) == 0
        row = read_rows(out)[0]
        assert float(row["g_wm"]) == pytest.approx(expected, abs=1e-6)
        assert float(row["tau2"]) == pytest.approx(tau2, abs=1e-6)

    def test_heterogeneity_columns(self, tmp_path):
        # w = 100 each: Q = 100 * (0.09 + 0 + 0.09) = 18 on 2 df, I^2 = 16/18
        effects = tmp_path / "e.csv"
        effects.write_text("study_id,g,v_g\na,0.0,0.01\nb,0.3,0.01\nc,0.6,0.01\n")
        out = tmp_path / "m.csv"
        assert main(["meta", str(effects), "-o", str(out), "--precision", "12"]) == 0
        assert out.read_text().splitlines()[0] == "k,g_wm,v_wm,tau2,ci_lo,ci_hi,q,i2"
        row = read_rows(out)[0]
        assert float(row["q"]) == pytest.approx(18.0, rel=1e-11)
        assert float(row["i2"]) == pytest.approx(8 / 9, rel=1e-11)

    def test_duplicate_study_id_rejected_with_row_number(self, tmp_path, capsys):
        effects = tmp_path / "e.csv"
        effects.write_text("study_id,g,v_g\nA,0.2,0.02\nA,0.2,0.02\nB,0.5,0.04\n")
        assert main(["meta", str(effects), "-o", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{effects}, row 3: duplicate study_id 'A'" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv"]


class TestMcCommand:
    def test_single_scenario_config(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "density": "f1", "L": 5, "mean_vec": [4, 5.5, 7],
            "sigma_ws": 5.0, "n_triplet": [10, 15, 5],
            "mc_reps": 4, "inner_iterations": 40, "seed": 9,
        }))
        out = tmp_path / "bias.csv"
        assert main(["mc", str(config), "-o", str(out)]) == 0
        row = read_rows(out)[0]
        assert row["density"] == "f1"
        assert int(row["replicates"]) == 4
        assert float(row["bias_gwm_sim"]) < float(row["bias_gwm_crude"]) * 10  # sanity only

    def test_reps_override_and_manifest(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "density": "f2", "L": 5, "mean_vec": [4, 5.5, 7],
            "sigma_ws": 5.0, "n_triplet": [10, 15, 5],
            "mc_reps": 50, "inner_iterations": 30, "seed": 9,
        }))
        out = tmp_path / "bias.csv"
        assert main(["mc", str(config), "--reps", "3", "-o", str(out)]) == 0
        assert int(read_rows(out)[0]["replicates"]) == 3
        manifest = json.loads((tmp_path / "bias.csv.manifest.json").read_text())
        assert manifest["options"]["reps"] == 3

    def test_missing_config_without_full_grid(self, tmp_path, capsys):
        assert main(["mc", "-o", str(tmp_path / "o.csv")]) == 1
        assert "scenario config" in capsys.readouterr().err

    def test_config_with_full_grid_is_refused(self, tmp_path, monkeypatch, capsys):
        def run_scenario(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr("addmeta.bias_study.run_scenario", run_scenario)
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"density": "f1", "L": 5, "mean_vec": [4, 5.5, 7], "sigma_ws": 1.0,
                                      "n_triplet": [10, 15, 5], "mc_reps": 2}))
        assert main(["mc", str(config), "--full-grid", "-o", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "scenario config file or --full-grid, not both" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_interrupt_exits_130_with_one_line_and_no_output(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("addmeta.bias_study.run_scenario", interrupted)
        assert main(["mc", "--full-grid", "-o", str(tmp_path / "o.csv")]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_while_parsing_exits_130_with_one_line(self, monkeypatch, capsys):
        class Parser:
            def parse_args(self, argv):
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "build_parser", Parser)
        assert main(["mc", "--full-grid", "-o", "o.csv"]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    @pytest.mark.parametrize("flag, message", [
        ("--reps", "mc_reps must be an integer >= 2, got 0"),
        ("--inner-iterations", "inner_iterations must be an integer >= 2, got 0"),
    ])
    def test_full_grid_refuses_a_zero_override(self, flag, message, tmp_path, monkeypatch, capsys):
        def run_scenario(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr("addmeta.bias_study.run_scenario", run_scenario)
        assert main(["mc", "--full-grid", flag, "0", "-o", str(tmp_path / "grid.csv")]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_failing_worker_exits_1_without_output(self, tmp_path, monkeypatch, capfd):
        replicate = bias_study._replicate

        def failing_at_1_and_3(scenario, rep):
            if rep in (1, 3):
                raise ValueError(f"replicate {rep} of scenario injected")
            return replicate(scenario, rep)

        monkeypatch.setattr(bias_study, "_replicate", failing_at_1_and_3)
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"density": "f1", "L": 5, "mean_vec": [4, 5.5, 7], "sigma_ws": 1.0,
                                      "n_triplet": [10, 15, 5], "mc_reps": 4, "inner_iterations": 20}))
        threads = threading.active_count()
        assert main(["mc", str(config), "--workers", "2", "-o", str(tmp_path / "o.csv")]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "replicate 1 of scenario" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]
        assert threading.active_count() == threads

    def test_overflow_in_a_replicate_exits_1_naming_it_at_any_worker_count(self, tmp_path, monkeypatch, capfd):
        draw_fits = bias_study.draw_fits
        # study 2 of replicate 1, by the SDs that replicate draws for it
        _, sds = perturb_study_params((4, 5.5, 7), 1.0, 5, substream(9, MC_PARAMS, 1, 0))
        overflowing = sds.T.tolist()[1]

        def overflowing_study(m, sd, n, iterations, rng):
            if sd == overflowing:
                np.float64(1e300) * np.float64(1e300)  # raises only under the replicate's np.errstate
            return draw_fits(m, sd, n, iterations, rng)

        monkeypatch.setattr(bias_study, "draw_fits", overflowing_study)
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"density": "f1", "L": 5, "mean_vec": [4, 5.5, 7], "sigma_ws": 1.0,
                                      "n_triplet": [10, 15, 5], "mc_reps": 4, "inner_iterations": 20,
                                      "seed": 9}))
        errors = []
        for workers in ("1", "2"):
            assert main(["mc", str(config), "--workers", workers, "-o", str(tmp_path / "o.csv")]) == 1
            errors.append(capfd.readouterr().err)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]
        assert errors[0] == errors[1]
        assert errors[0].startswith(
            "error: scenario density=f1, L=5, mean_vec=(4.0, 5.5, 7.0), sigma_ws=1.0, n_triplet=(10, 15, 5), "
            "replicate 1: study2: the simulated fits leave the floating-point range (overflow encountered in "
        ) and len(errors[0].splitlines()) == 1

    def test_out_of_memory_exits_1_at_any_worker_count(self, tmp_path, monkeypatch, capfd):
        def out_of_memory(m, sd, n, iterations, rng):
            raise MemoryError(f"Unable to allocate an array of {iterations} draws")

        monkeypatch.setattr(bias_study, "draw_fits", out_of_memory)
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"density": "f1", "L": 5, "mean_vec": [4, 5.5, 7], "sigma_ws": 1.0,
                                      "n_triplet": [10, 15, 5], "mc_reps": 4, "inner_iterations": 20}))
        for workers in ("1", "2"):
            assert main(["mc", str(config), "--workers", workers, "-o", str(tmp_path / "o.csv")]) == 1
            err = capfd.readouterr().err
            assert err == "error: Unable to allocate an array of 20 draws\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_full_grid_enumerates_every_cell(self):
        scenarios = full_grid(mc_reps=2, inner_iterations=2, seed=0)
        assert len(scenarios) == 4 * 3 * 2 * 3 * 8
        assert len(set(scenarios)) == len(scenarios)
        # mc --full-grid writes rows in this nested-loop order
        nested = [
            (density, n_studies, sigma_ws, mean_vec, n_triplet)
            for density in DENSITIES
            for n_studies in STUDY_COUNTS
            for sigma_ws in SIGMA_WS_VALUES
            for mean_vec in MEAN_VECTORS
            for n_triplet in N_TRIPLETS
        ]
        assert [(s.density, s.n_studies, s.sigma_ws, s.mean_vec, s.n_triplet) for s in scenarios] == nested
        assert {(s.mc_reps, s.inner_iterations, s.seed) for s in scenarios} == {(2, 2, 0)}

    def test_scenario_study_count_is_keyed_l_only(self, tmp_path):
        from addmeta.io import read_scenario

        base = {"density": "f1", "mean_vec": [4, 5.5, 7], "sigma_ws": 1.0,
                "n_triplet": [10, 15, 5]}
        config = tmp_path / "s.json"
        config.write_text(json.dumps({**base, "L": 10}))
        assert read_scenario(config).n_studies == 10
        config.write_text(json.dumps({**base, "n_studies": 15}))
        with pytest.raises(ValueError, match=r"unknown scenario keys \['n_studies'\]"):
            read_scenario(config)
        # the bias study has one negative-mean rule, so there is no truncation setting
        config.write_text(json.dumps({**base, "L": 10, "truncation": "none"}))
        with pytest.raises(ValueError, match=r"unknown scenario keys \['truncation'\]"):
            read_scenario(config)
        config.write_text(json.dumps({**base, "L": 10, "bogus": 1}))
        with pytest.raises(ValueError, match="unknown scenario keys"):
            read_scenario(config)


class TestOrCommand:
    def test_published_fixture(self, or_records_csv, tmp_path):
        out = tmp_path / "or.csv"
        assert main(["or", str(or_records_csv), "-o", str(out)]) == 0
        row = read_rows(out)[0]
        assert float(row["or_combined"]) == pytest.approx(1.7274, abs=0.002)
        assert float(row["ci_lo"]) == pytest.approx(1.0217, abs=0.005)
        assert float(row["ci_hi"]) == pytest.approx(2.9205, abs=0.005)
        assert row["pairing"] == "plus+minus"
        assert float(row["ab_distance"]) == 0.0

    def test_iterations_used_column(self, or_records_csv, tmp_path):
        out = tmp_path / "or.csv"
        assert main(["or", str(or_records_csv), "-o", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "study_id,or_combined,ci_lo,ci_hi,pairing,ab_distance,iterations_used"
        _, combined = combine_reported_ors(ORRecord("AB_vs_AA", 3.00, 1.05, 8.60, 30, 30),
                                           ORRecord("BB_vs_AB", 1.00, 0.36, 2.81, 30, 30))
        assert read_rows(out)[0]["iterations_used"] == str(combined.iterations_used)

    def test_unbounded_interval_exits_1_naming_the_study(self, tmp_path, capsys):
        # merges to AA (2, 66589981), AB (0, 1), BB (0, 375301268): only AA has a
        # present count, so the code separates the counts and no fit is made
        src = tmp_path / "ors.csv"
        src.write_text(
            "study_id,label,or,ci_lo,ci_hi,m_top,m_bottom\n"
            "demo,AB_vs_AA,3.00,1.05,8.60,30,30\n"
            "demo,BB_vs_AB,1.00,0.36,2.81,30,30\n"
            "flat,AB_vs_AA,6658997.800000001,28931.905758197616,1532641923.798638,1,66589983\n"
            "flat,BB_vs_AB,2.131620828949611e-09,4.3343588874569946e-12,1.0483228261418172e-06,"
            "375301268,1\n"
        )
        assert main(["or", str(src), "-o", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: study 'flat': no finite Wald interval")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ors.csv"]

    def test_null_pair_combines_to_unity(self, tmp_path):
        src = tmp_path / "ors.csv"
        with src.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["study_id", "label", "or", "ci_lo", "ci_hi", "m_top", "m_bottom"])
            writer.writerow(["null", "AB_vs_AA", 1.00, 0.36, 2.81, 30, 30])
            writer.writerow(["null", "BB_vs_AB", 1.00, 0.36, 2.81, 30, 30])
        out = tmp_path / "or.csv"
        assert main(["or", str(src), "-o", str(out)]) == 0
        assert float(read_rows(out)[0]["or_combined"]) == pytest.approx(1.0, abs=0.05)

    def test_missing_label_reported(self, tmp_path, capsys):
        src = tmp_path / "ors.csv"
        src.write_text(
            "study_id,label,or,ci_lo,ci_hi,m_top,m_bottom\n"
            "lonely,AB_vs_AA,3.00,1.05,8.60,30,30\n"
        )
        assert main(["or", str(src), "-o", str(tmp_path / "o.csv")]) == 1
        assert "BB_vs_AB" in capsys.readouterr().err

    def test_infeasible_record_names_path_study_and_label(self, tmp_path, capsys):
        src = tmp_path / "ors.csv"
        src.write_text(
            "study_id,label,or,ci_lo,ci_hi,m_top,m_bottom\n"
            "demo,AB_vs_AA,3.00,1.05,8.60,30,30\n"
            "demo,BB_vs_AB,1.00,0.36,2.81,30,30\n"
            "narrow,AB_vs_AA,2.0,1.1,3.6,40,40\n"
            "narrow,BB_vs_AB,1.00,0.36,2.81,30,30\n"
        )
        out = tmp_path / "o.csv"
        assert main(["or", str(src), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: study 'narrow': AB_vs_AA record: no real solution")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ors.csv"]

    def test_record_with_no_table_inside_its_margins_names_path_study_and_label(self, tmp_path, capsys):
        # the double root completes to a cell 39 counts past m_bottom: recover_tables
        # drops both candidates
        src = tmp_path / "ors.csv"
        src.write_text(
            "study_id,label,or,ci_lo,ci_hi,m_top,m_bottom\n"
            "demo,AB_vs_AA,3.00,1.05,8.60,30,30\n"
            "demo,BB_vs_AB,1.00,0.36,2.81,30,30\n"
            "huge,AB_vs_AA,3.2627e16,1.9085e16,5.5779e16,3791159029,7358272510\n"
            "huge,BB_vs_AB,1.00,0.36,2.81,30,3791159029\n"
        )
        out = tmp_path / "o.csv"
        assert main(["or", str(src), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: study 'huge': AB_vs_AA record: both recovered tables fall "
                              "outside the margins")
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ors.csv"]


STUDY_HEADER = "study_id,m1,m2,m3,sd1,sd2,sd3,n1,n2,n3\n"
SCENARIO_JSON = ('{"density": "f1", "L": 5, "mean_vec": [4, 5.5, 11], "sigma_ws": 1, "n_triplet": [10, 15, 5], '
                 '"mc_reps": %s}')
# run_scenario keeps one result slot per replicate, and a list holds at most sys.maxsize items
REPS_PAST_INDEX = f"mc_reps must be an integer <= {sys.maxsize}"
SD_RANGE = "in.csv, row 2: A: all standard deviations must be > 0, between about 1.5e-154 and 1.3e154"
SIZE_SUM = "in.csv, row 2: A: sample sizes must sum to below about 4.5e307"


class TestExtremeInputs:
    """Values at the edges of the float range end in one error line, never a traceback or nan."""

    @pytest.mark.parametrize("argv, name, text, message", [
        (["effect"], "in.csv", STUDY_HEADER + "A,4,5.5,7,1e-200,1e-200,1e-200,10,15,5\n", SD_RANGE),
        (["effect"], "in.csv", STUDY_HEADER + "A,4,5.5,7,1e200,1e200,1e200,10,15,5\n", SD_RANGE),
        (["effect", "--method", "sim"], "in.csv",
         STUDY_HEADER + "A,4,5.5,7,1e-200,1e-200,1e-200,10,15,5\n", SD_RANGE),
        (["effect", "--method", "sim"], "in.csv",
         STUDY_HEADER + "A,4,5.5,7,1e200,1e200,1e200,10,15,5\n", SD_RANGE),
        (["effect"], "in.csv", STUDY_HEADER + "A,-1e300,0,1e300,1e-10,1e-10,1e-10,10,15,5\n",
         "A: the additive effect leaves the floating-point range"),
        (["effect", "--standardizer", "pair-mean"], "in.csv",
         STUDY_HEADER + "A,-1.5e308,0,1.5e308,1,1,1,10,15,5\n",
         "A: the additive effect leaves the floating-point range"),
        (["effect"], "in.csv", STUDY_HEADER + "A,4,5.5,7,1e150,1e150,1e150,100000000000,15,5\n",
         "A: the additive effect leaves the floating-point range"),
        (["effect", "--method", "sim"], "in.csv",
         STUDY_HEADER + "A,-1e300,0,1e300,1e-10,1e-10,1e-10,10,15,5\n",
         "A: the simulated fits leave the floating-point range"),
        (["meta"], "e.csv", "study_id,g,v_g\nA,0.5,0.1\nB,0.3,1e-320\nC,0.2,0.05\n",
         "e.csv: no finite pooled estimate of 3 effects"),
        (["meta"], "e.csv", "study_id,g,v_g\nA,0.3,1e-320\n",
         "e.csv: no finite pooled estimate of 1 effects"),
        (["meta"], "e.csv", "study_id,g,v_g\nA,0.5,1e-308\nB,0.7,1e-308\n",
         "e.csv: no finite pooled estimate of 2 effects"),
        (["meta"], "e.csv", "study_id,g,v_g\nA,0.5,1e-160\nB,0.7,1e-160\n",
         "e.csv: no finite pooled estimate of 2 effects"),
        (["meta"], "e.csv", "study_id,g,v_g\nA,-1e300,1\nB,1e300,1\n",
         "e.csv: no finite pooled estimate of 2 effects"),
        (["effect"], "in.json",
         '[{"study_id": "A", "m1": 4, "m2": 5.5, "m3": 7, "sd1": 1, "sd2": 1, "sd3": 1, '
         f'"n1": {10**400}, "n2": 15, "n3": 5}}]',
         "in.json, row 1: A: sample sizes must sum to below about 4.5e307"),
        (["effect"], "in.csv", STUDY_HEADER + "A,4,5.5,7,1,1,1,1e308,1e308,5\n", SIZE_SUM),
        (["effect", "--standardizer", "pair-mean"], "in.csv", STUDY_HEADER + "A,4,5.5,7,1,1,1,1e308,1e308,5\n",
         SIZE_SUM),
        (["effect"], "in.csv", STUDY_HEADER + "A,4,5.5,7,1,1,1,5e307,5e307,5\n", SIZE_SUM),
        (["effect", "--method", "sim"], "in.csv", STUDY_HEADER + "A,4,5.5,7,1,1,1,5e307,5e307,5\n", SIZE_SUM),
        (["effect"], "in.json",
         '[{"study_id": "A", "m1": 4, "m2": 5.5, "m3": 7, "sd1": 1, "sd2": 1, "sd3": 1, '
         f'"n1": {10**30}, "n2": 15, "n3": 5}}]',
         "in.json, row 1: A: sample sizes must be integers that a float holds exactly"),
        (["or"], "ors.csv", "study_id,label,or,ci_lo,ci_hi,m_top,m_bottom\n"
         "S1,AB_vs_AA,3.00,1.05,8.60,30,30\nS1,BB_vs_AB,1e+200,1e+199,1e+201,50,50\n",
         "ors.csv: study 'S1': BB_vs_AB record: the quadratic's coefficients leave the floating-point range"),
        (["mc"], "cell.json", SCENARIO_JSON % 2**63, f"cell.json: {REPS_PAST_INDEX}, got {2**63}"),
        (["mc"], "cell.json", SCENARIO_JSON % "1e300", f"cell.json: {REPS_PAST_INDEX}, got {int(1e300)}"),
        (["mc", "--reps", str(2**63)], "cell.json", SCENARIO_JSON % 6, f"cell.json: {REPS_PAST_INDEX}, got {2**63}"),
        (["effect", "--method", "crude", "--iterations", "1"], "in.csv",
         STUDY_HEADER + "A,4,5.5,7,1,1,1,10,15,5\n", "iterations must be an integer >= 2, got 1"),
    ], ids=["crude-tiny-sd", "crude-huge-sd", "sim-tiny-sd", "sim-huge-sd", "crude-infinite-d",
            "crude-infinite-slope", "crude-infinite-variance", "sim-infinite-d", "meta-subnormal-v",
            "meta-single-subnormal-v", "meta-weight-sum-overflow", "meta-squared-weight-overflow",
            "meta-q-overflow", "json-group-size-past-float", "crude-pooled-size-sum-past-float",
            "crude-pair-mean-size-sum-past-float", "crude-count-past-float", "sim-count-past-float",
            "json-group-size-not-a-float",
            "or-past-float", "json-reps-past-index", "json-reps-float-past-index", "flag-reps-past-index",
            "crude-one-iteration"])
    def test_exits_1_with_one_error_line_and_no_output(self, argv, name, text, message, tmp_path, capsys):
        src = tmp_path / name
        src.write_text(text)
        assert main([argv[0], str(src), *argv[1:], "-o", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert message in err and "nan" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    @pytest.mark.parametrize("method", ["crude", "sim"])
    def test_effect_refusal_names_the_input_file(self, method, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(STUDY_HEADER + "A,-1e300,0,1e300,1e-10,1e-10,1e-10,10,15,5\n")
        assert main(["effect", str(src), "--method", method, "-o", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {src}: A: ")


STUDY_ROW = "A,4,5.5,7,1,1,1,10,15,5\n"
STUDY_JSON = ('[{"study_id": %s, "m1": 4, "m2": 5.5, "m3": 7, "sd1": 1, "sd2": 1, "sd3": 1, '
              '"n1": 10, "n2": 15, "n3": 5}]')


@pytest.mark.parametrize("command, name, data, where", [
    ("effect", "in.csv", (STUDY_HEADER + STUDY_ROW).encode() + b"\xff" + STUDY_ROW.encode(), ""),
    ("effect", "in.json", (STUDY_JSON % '"\xff"').encode("latin-1"), ""),
    ("meta", "e.csv", b"study_id,g,v_g\nA,0.5,0.1\n\xff,0.3,0.2\n", ""),
    ("or", "ors.csv", b"study_id,label,or,ci_lo,ci_hi,m_top,m_bottom\n\xff", ""),
    ("mc", "cell.json", b'{"density": "f1\xff"}', ""),
    ("effect", "in.json", b'[{"study_id": ', ""),
    ("mc", "cell.json", b'{"density": ', ""),
    ("effect", "in.json", (STUDY_JSON % r'"\ud800"').encode(), ", row 1"),
    # json.load refuses an integer of more than 4300 digits (sys.get_int_max_str_digits)
    ("effect", "in.json", (STUDY_JSON % '"A"').replace('"n1": 10', '"n1": -' + "1" * 5000).encode(), ""),
    ("mc", "cell.json", b'{"mc_reps": -' + b"1" * 5000 + b"}", ""),
    # a JSON study_id that is not a string is refused, not written as its str()
    *[("effect", "in.json", (STUDY_JSON % value).encode(), ", row 1") for value in ("null", '["x"]', "7", "true")],
], ids=["study-csv-not-utf8", "study-json-not-utf8", "effects-csv-not-utf8", "or-csv-not-utf8",
        "scenario-not-utf8", "study-json-truncated", "scenario-truncated", "study-id-lone-surrogate",
        "study-json-int-past-digit-limit", "scenario-int-past-digit-limit", "study-id-null", "study-id-list",
        "study-id-number", "study-id-bool"])
def test_unreadable_input_exits_1_naming_the_file(command, name, data, where, tmp_path, capsys):
    src = tmp_path / name
    src.write_bytes(data)
    assert main([command, str(src), "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}{where}: ") and len(err.splitlines()) == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
