"""End-to-end exercises of the command line: synth, simulate, assess, report.

Everything runs through cli.main() in process, so exit codes and stdout can
be asserted directly. The heavyweight input synthesis happens once in the
session-scoped study_dir fixture.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfire import cli
from gridfire.fixtures import REFERENCE_BURNED_ACRES, REFERENCE_DAMAGED_MILES
from gridfire.scenarios import StudyConfig
from gridfire.spread import wind_factor


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


def run(argv):
    return cli.main(argv)


def exit_code(argv):
    """cli.main's exit code, including argparse's usage errors."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# one line, two ignitions per season, 1 h fires
SMALL_STUDY = ["--set", "study.line_ids=6", "--set", "study.ignitions_per_line=2",
               "--set", "study.duration_hours=1.0"]

STUDY_INI = """\
[paths]
landscape_dir = landscape
fuel_catalog = fuel_catalog.csv
network = network.json
weather = weather.csv

[study]
ignitions_per_line = 3
duration_hours = 24.0
placement = even
seed = 0
year = 2022
ignition_hour = 12
buffer_cells = 0

[spread]
neighborhood = 16
humidity_ref_pct = 30.0
min_ros_m_min = 0.01
max_eccentricity = 0.95

[costs]
cbe_per_acre = 20000.0
cbl_per_mile = 200000.0
"""

INT_KEYS = {"study.ignitions_per_line", "study.seed", "study.year", "study.ignition_hour",
            "study.buffer_cells", "spread.neighborhood"}
FLOAT_KEYS = {"study.duration_hours", "spread.humidity_ref_pct", "spread.min_ros_m_min",
              "spread.max_eccentricity", "costs.cbe_per_acre", "costs.cbl_per_mile"}
TEXT_KEYS = {"paths.landscape_dir", "paths.fuel_catalog", "paths.network", "paths.weather",
             "study.placement", "study.line_ids", "study.seasons"}
KNOWN_KEYS = INT_KEYS | FLOAT_KEYS | TEXT_KEYS


# ------------------------------------------------------------------- synth


def test_synth_writes_expected_files(study_dir):
    names = set(tree_bytes(study_dir))
    assert "study.ini" in names
    assert "fuel_catalog.csv" in names
    assert "network.json" in names
    assert "weather.csv" in names
    assert "table1.csv" in names
    assert "table2.csv" in names
    assert {n for n in names if n.startswith("landscape/")} == {
        "landscape/slope.asc", "landscape/aspect.asc", "landscape/fuel.asc"}


def test_synth_writes_the_reference_tables(study_dir):
    """table1.csv and table2.csv hold the bundled figures exactly, in the
    format `assess --from-tables` reads, with their avg rounded."""
    for name, table, first in (
        ("table1.csv", REFERENCE_BURNED_ACRES, "1,80.7,1267.0,3879.4,2163.9,1847.8"),
        ("table2.csv", REFERENCE_DAMAGED_MILES, "1,81.77,81.77,81.77,81.77,81.77"),
    ):
        lines = (study_dir / name).read_text().splitlines()
        assert lines[:2] == ["line_id,winter,spring,summer,fall,avg", first]
        assert cli._read_table(study_dir / name) == {j: list(v) for j, v in table.items()}


def test_synth_writes_the_default_study_ini(study_dir):
    assert (study_dir / "study.ini").read_text() == STUDY_INI
    assert set(cli.KEYS) == KNOWN_KEYS


def test_synth_is_idempotent(study_dir, tmp_path, capsys):
    rc = run(["synth", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    assert "34 ignitable lines" in capsys.readouterr().out
    assert tree_bytes(tmp_path) == tree_bytes(study_dir)


# ------------------------------------------- simulate -> assess -> report


@pytest.fixture(scope="module")
def small_run(study_dir, tmp_path_factory):
    """A restricted simulate (one line, two ignitions, 1 h) plus assess."""
    sim = tmp_path_factory.mktemp("sim")
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(sim), *SMALL_STUDY])
    assert rc == 0
    rep = tmp_path_factory.mktemp("rep")
    rc = run([
        "assess", "--config", str(study_dir / "study.ini"), "--out", str(rep),
        "--results", str(sim / "results.csv"),
    ])
    assert rc == 0
    return sim, rep


def test_simulate_outputs(small_run):
    sim, _ = small_run
    rows = (sim / "results.csv").read_text().splitlines()
    assert rows[0].startswith("line_id,")
    assert len(rows) == 1 + 1 * 4 * 2  # one line, four seasons, two ignitions
    assert all(r.startswith("6,") for r in rows[1:])

    meta = json.loads((sim / "run_meta.json").read_text())
    assert set(meta) == {"config_sha256", "scenarios", "lines", "seasons", "warnings"}
    assert meta["scenarios"] == 8
    assert meta["lines"] == 1
    assert len(meta["seasons"]) == 4
    assert len(meta["config_sha256"]) == 64


def test_simulate_reruns_bit_identical(study_dir, small_run, tmp_path):
    sim, _ = small_run
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path),
              *SMALL_STUDY])
    assert rc == 0
    assert (tmp_path / "results.csv").read_bytes() == (sim / "results.csv").read_bytes()
    assert (tmp_path / "run_meta.json").read_bytes() == (sim / "run_meta.json").read_bytes()


def test_simulate_outputs_do_not_depend_on_worker_count(study_dir, small_run, tmp_path):
    sim, _ = small_run  # --workers 1
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path),
              "--workers", "2", *SMALL_STUDY])
    assert rc == 0
    assert (tmp_path / "results.csv").read_bytes() == (sim / "results.csv").read_bytes()
    assert (tmp_path / "run_meta.json").read_bytes() == (sim / "run_meta.json").read_bytes()


def test_assess_outputs(small_run):
    _, rep = small_run
    for name in ("risk.csv", "table_acres.csv", "table_miles.csv", "plot_metric.csv"):
        assert (rep / name).is_file()
    risk = (rep / "risk.csv").read_text().splitlines()
    assert risk[0] == "line_id,lbe,lbl,wfl,metric,rank"
    parts = risk[1].split(",")
    assert parts[0] == "6" and parts[4] == "1.0" and parts[5] == "1"
    plot = (rep / "plot_metric.csv").read_text().splitlines()
    assert plot[0] == "line_id,metric" and plot[1] == "6,1.0"


def test_assess_reads_no_network(study_dir, small_run, tmp_path):
    """assess ranks from the rows of results.csv and the config's costs
    alone: a missing network file changes none of its outputs."""
    sim, rep = small_run
    out = tmp_path / "rep"
    rc = run(["assess", "--config", str(study_dir / "study.ini"), "--out", str(out),
              "--results", str(sim / "results.csv"),
              "--set", f"paths.network={tmp_path / 'absent.json'}"])
    assert rc == 0
    assert tree_bytes(out) == tree_bytes(rep)


def test_assess_refuses_a_nan_result_row(study_dir, small_run, tmp_path, capsys):
    """A results row the loss math cannot use stops assess with exit 2,
    instead of a ranking whose every metric is nan."""
    sim, _ = small_run
    rows = (sim / "results.csv").read_text().splitlines()
    parts = rows[1].split(",")
    parts[4] = "nan"  # burned_acres
    rows[1] = ",".join(parts)
    results = tmp_path / "results.csv"
    results.write_text("\n".join(rows) + "\n")
    out = tmp_path / "rep"
    rc = run(["assess", "--config", str(study_dir / "study.ini"), "--out", str(out),
              "--results", str(results)])
    assert rc == 2
    assert "row 2: burned_acres nan" in capsys.readouterr().err
    assert not out.exists()


def zero_loss(parts):
    parts[4] = parts[6] = "0.0"  # burned_acres, affected_miles
    return parts


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda parts: None if parts[1] == "1" else parts,
                 "line 6 has no scenarios for season 1", id="missing-season"),
    pytest.param(zero_loss, "every line has zero loss; the risk metric is undefined",
                 id="zero-loss"),
])
def test_assess_names_the_results_file(study_dir, small_run, tmp_path, capsys, edit, named):
    """A fault that no single results row shows, a season with no rows or
    no loss on any line, stops assess with the results file named."""
    sim, _ = small_run
    header, *rows = (sim / "results.csv").read_text().splitlines()
    kept = [edit(row.split(",")) for row in rows]
    results = tmp_path / "results.csv"
    results.write_text("\n".join([header, *(",".join(k) for k in kept if k)]) + "\n")
    out = tmp_path / "rep"
    rc = run(["assess", "--config", str(study_dir / "study.ini"), "--out", str(out),
              "--results", str(results)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {results}: {named}\n"
    assert not out.exists()


def test_report_refuses_a_risk_row_with_an_extra_field(small_run, tmp_path, capsys):
    _, rep = small_run
    bad = tmp_path / "rep"
    shutil.copytree(rep, bad)
    rows = (bad / "risk.csv").read_text().splitlines()
    rows[1] += ",9"
    (bad / "risk.csv").write_text("\n".join(rows) + "\n")
    assert run(["report", str(bad)]) == 2
    assert f"{bad / 'risk.csv'}: row 2: expected 6 fields, got 7" in capsys.readouterr().err


def test_report_refuses_a_non_finite_risk_row(small_run, tmp_path, capsys):
    _, rep = small_run
    bad = tmp_path / "rep"
    shutil.copytree(rep, bad)
    rows = (bad / "risk.csv").read_text().splitlines()
    j, lbe, lbl, wfl, _, rank = rows[1].split(",")
    rows[1] = ",".join([j, "inf", lbl, "inf", "nan", rank])
    (bad / "risk.csv").write_text("\n".join(rows) + "\n")
    assert run(["report", str(bad)]) == 2
    assert f"{bad / 'risk.csv'}: row 2: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows + [rows[1]], "row 3: line 6 repeats row 2"),
    (lambda rows: rows + ["7" + rows[1][1:]], "row 3: rank 1 repeats row 2"),
    (lambda rows: [rows[0], rows[1][:-1] + "2"], "row 2: rank 2 is not in 1..1"),
    (lambda rows: rows + ["7" + rows[1][1:-1] + "3"], "row 3: rank 3 is not in 1..2"),
])
def test_report_refuses_a_ranking_that_repeats_a_line_or_skips_a_rank(
        small_run, tmp_path, capsys, edit, message):
    """risk.csv holds one row per line, ranked 1..n."""
    _, rep = small_run
    bad = tmp_path / "rep"
    shutil.copytree(rep, bad)
    rows = (bad / "risk.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("6,") and rows[1].endswith(",1")
    (bad / "risk.csv").write_text("\n".join(edit(rows)) + "\n")
    assert run(["report", str(bad)]) == 2
    assert f"{bad / 'risk.csv'}: {message}" in capsys.readouterr().err


def test_report_summary(small_run, capsys):
    _, rep = small_run
    assert run(["report", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "risk ranking" in out
    assert "peak season summer, mildest winter" in out
    assert "summer/winter mean burned-area ratio:" in out


# ------------------------------------------------------------ from-tables


def risk_by_line(path):
    rows = Path(path).read_text().splitlines()[1:]
    out = {}
    for row in rows:
        p = row.split(",")
        out[int(p[0])] = (float(p[1]), float(p[2]), float(p[3]), float(p[4]), int(p[5]))
    return out


def test_assess_from_tables(study_dir, tmp_path):
    rep = tmp_path / "rep"
    rc = run(["assess", "--from-tables", str(study_dir / "table1.csv"),
              str(study_dir / "table2.csv"), "--out", str(rep)])
    assert rc == 0
    risk = risk_by_line(rep / "risk.csv")
    assert len(risk) == 34

    lbe6, lbl6, wfl6, m6, rank6 = risk[6]
    assert (m6, rank6) == (1.0, 1)
    assert lbe6 == pytest.approx(84_724_000.0, rel=1e-12)
    assert lbl6 == pytest.approx(43_072_500.0, rel=1e-12)
    assert wfl6 == pytest.approx(127_796_500.0, rel=1e-12)

    _, _, _, m10, rank10 = risk[10]
    assert rank10 == 2
    assert m10 == pytest.approx(0.7296717828735528, rel=1e-12)

    # rerun lands byte-identical: nothing wall-clock dependent in outputs
    rep2 = tmp_path / "rep2"
    assert run(["assess", "--from-tables", str(study_dir / "table1.csv"),
                str(study_dir / "table2.csv"), "--out", str(rep2)]) == 0
    assert (rep2 / "risk.csv").read_bytes() == (rep / "risk.csv").read_bytes()


def test_assess_from_tables_honors_cost_overrides(study_dir, tmp_path):
    rep = tmp_path / "rep"
    rc = run(["assess", "--from-tables", str(study_dir / "table1.csv"),
              str(study_dir / "table2.csv"), "--out", str(rep),
              "--set", "costs.cbe_per_acre=2000000.0",
              "--set", "costs.cbl_per_mile=20000000.0"])
    assert rc == 0
    risk = risk_by_line(rep / "risk.csv")
    # scaling both unit costs by 100x leaves the normalized metric alone
    assert risk[6][3] == 1.0
    assert risk[10][3] == pytest.approx(0.7296717828735528, rel=1e-12)
    assert risk[6][0] == pytest.approx(100 * 84_724_000.0, rel=1e-12)


def test_assess_refuses_costs_whose_losses_overflow(study_dir, tmp_path, capsys):
    rep = tmp_path / "rep"
    rc = run(["assess", "--from-tables", str(study_dir / "table1.csv"),
              str(study_dir / "table2.csv"), "--out", str(rep),
              "--set", "costs.cbe_per_acre=1e305"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1: loss lbe inf" in err
    assert "costs.cbe_per_acre and costs.cbl_per_mile" in err
    assert not rep.exists()


# -------------------------------------------------------------- exit codes


def test_missing_weather_file_is_exit_2(study_dir, tmp_path, capsys):
    ini = tmp_path / "study.ini"
    ini.write_text(
        "[paths]\n"
        f"landscape_dir = {study_dir / 'landscape'}\n"
        f"fuel_catalog = {study_dir / 'fuel_catalog.csv'}\n"
        f"network = {study_dir / 'network.json'}\n"
        "weather = missing.csv\n"
    )
    rc = run(["simulate", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 2
    assert "missing.csv" in capsys.readouterr().err


def test_bad_weather_row_outside_every_fire_is_exit_2(study_dir, tmp_path, capsys):
    """The whole year is validated, not just the hours the fires read: a bad
    value in the last row of the year (December 31st, 23:00) stops the run."""
    lines = (study_dir / "weather.csv").read_text().splitlines()
    assert len(lines) == 8761
    stamp = lines[-1].split(",")[0]
    lines[-1] = f"{stamp},3.0,225.0,15.0,101.0"
    weather = tmp_path / "weather.csv"
    weather.write_text("\n".join(lines) + "\n")
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              *SMALL_STUDY, "--set", f"paths.weather={weather}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 8761: relative humidity 101.0 outside [0, 100]" in err
    assert not (tmp_path / "run").exists()


def test_missing_config_is_exit_2(tmp_path, capsys):
    rc = run(["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == 2
    assert "nope.ini" in capsys.readouterr().err


@pytest.mark.parametrize("rows,named", [
    pytest.param("6,a,b,c,d,e\n", "row 2: malformed", id="text"),
    pytest.param("6,1,2,nan,4,1.75\n", "row 2: values [1.0, 2.0, nan, 4.0] must be", id="nan"),
    pytest.param("6,1,2,3,4,2.5\n7,1,inf,3,4,inf\n", "row 3: values [1.0, inf,", id="inf"),
    pytest.param("6,1,-5000,3,4,-1248\n", "row 2: values [1.0, -5000.0,", id="negative"),
    pytest.param("6,1,2,3,4,2.5\n7,1,2,3,4,2.5\n6,1e9,1e9,1e9,1e9,1e9\n",
                 "row 4: line 6 repeats", id="repeated-line"),
    pytest.param("6,1,2,3,4,2.5,99,junk\n", "row 2: expected 6 fields, got 8", id="extra-field"),
    pytest.param("6,1,2,3,4,2.5\n\n7,1,2,3,4\n", "row 4: expected 6 fields, got 5", id="no-avg"),
    pytest.param("6,1,2,3,4,junk\n", "row 2: avg 'junk' is not a finite number", id="avg-junk"),
    pytest.param("6,1,2,3,4,2.5\n7,1,2,3,4,inf\n", "row 3: avg 'inf' is not a finite",
                 id="avg-inf"),
    pytest.param("6,1,2,3,4,2.5\n7,1,2,3,4,2.6\n", "row 3: avg 2.6 is not the mean 2.5 of",
                 id="avg-wrong"),
    pytest.param("6,1,2,3,4,2.55\n", "row 2: avg 2.55 is not the mean 2.5 of", id="avg-digits"),
])
def test_malformed_table_row_is_exit_2(tmp_path, capsys, rows, named):
    bad = tmp_path / "bad.csv"
    bad.write_text("line_id,winter,spring,summer,fall,avg\n" + rows)
    rc = run(["assess", "--from-tables", str(bad), str(bad), "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert f"{bad}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_table_avg_may_be_rounded_to_its_printed_decimals(study_dir, tmp_path):
    """An avg within half a unit of its last printed decimal of the seasons'
    mean passes: rounded by hand, the bundled tables' own rounding, and the
    exact means that assess writes, which read back to the same ranking."""
    table = tmp_path / "t.csv"
    table.write_text("line_id,winter,spring,summer,fall,avg\n"
                     "6,1,2,3,4,3\n7,1,2,3,4,2\n8,1,1,1,2,1.2\n9,1,1,1,2,1.3\n"
                     "10,1e9,1e9,1e9,3e9,1.5e9\n11,1e9,1e9,1e9,3e9,2e9\n")
    assert run(["assess", "--from-tables", str(table), str(table),
                "--out", str(tmp_path / "hand")]) == 0

    rep, back = tmp_path / "rep", tmp_path / "back"
    assert run(["assess", "--from-tables", str(study_dir / "table1.csv"),
                str(study_dir / "table2.csv"), "--out", str(rep)]) == 0
    assert run(["assess", "--from-tables", str(rep / "table_acres.csv"),
                str(rep / "table_miles.csv"), "--out", str(back)]) == 0
    for name in ("risk.csv", "table_acres.csv", "table_miles.csv"):
        assert (back / name).read_bytes() == (rep / name).read_bytes()


@pytest.mark.parametrize("header, row, labels", [
    ("line_id,summer,spring,winter,fall,avg", "6,1,2,3,4,2.5", "winter,spring,summer,fall"),
    ("line_id,value,spring,summer,fall,avg", "6,1,2,3,4,2.5", "winter,spring,summer,fall"),
    ("line_id,winter,spring,fall,summer", "6,1,2,3,4", "winter,spring,summer,fall"),
    ("line_id,season1,season0,avg", "6,1,2,1.5", "season0,season1"),
])
def test_season_table_with_other_season_columns_is_exit_2(study_dir, tmp_path, capsys, header,
                                                          row, labels):
    """A season table's columns are read by name: after line_id come the
    seasons' labels in order (winter to fall for four), then an optional
    avg. A header that reorders or renames a season stops assess, naming
    the file, where its figures would land in the wrong seasons."""
    bad = tmp_path / "table1.csv"
    bad.write_text(f"{header}\n{row}\n")
    rc = run(["assess", "--from-tables", str(bad), str(study_dir / "table2.csv"),
              "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert f"{bad}: expected header line_id,{labels}[,avg]" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("miles, named", [
    ("line_id,season0,season1,avg\n6,1,2,1.5\n", "different numbers of seasons"),
    ("line_id,winter,spring,summer,fall,avg\n7,1,2,3,4,2.5\n", "different line sets"),
])
def test_from_tables_that_disagree_are_exit_2(tmp_path, capsys, miles, named):
    """An acre and a mile table that cover different lines or seasons stop
    assess, naming both files."""
    acres_path, miles_path = tmp_path / "acres.csv", tmp_path / "miles.csv"
    acres_path.write_text("line_id,winter,spring,summer,fall,avg\n6,1,2,3,4,2.5\n")
    miles_path.write_text(miles)
    rc = run(["assess", "--from-tables", str(acres_path), str(miles_path),
              "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert f"{acres_path} and {miles_path}: acre and mile tables" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_from_tables_with_zero_loss_names_both_files(tmp_path, capsys):
    """Tables that give every line zero loss leave the risk metric
    undefined: assess stops, naming both files."""
    acres_path, miles_path = tmp_path / "acres.csv", tmp_path / "miles.csv"
    for path in (acres_path, miles_path):
        path.write_text("line_id,winter,spring,summer,fall,avg\n6,0,0,0,0,0\n7,0,0,0,0,0\n")
    rc = run(["assess", "--from-tables", str(acres_path), str(miles_path),
              "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {acres_path} and {miles_path}: every line has "
                                       "zero loss; the risk metric is undefined\n")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("row", ["1,grass,1,15.0,0.4,1.0", "1,grass,1,15.0,0.4,1.0,1.0,9"])
def test_ragged_catalog_row_is_exit_2(study_dir, tmp_path, capsys, row):
    """A fuel catalog row with a field too few or too many stops simulate,
    named by its line in the file: the blank line before it counts."""
    lines = (study_dir / "fuel_catalog.csv").read_text().splitlines()
    catalog = tmp_path / "fuel_catalog.csv"
    catalog.write_text("\n".join([*lines[:2], "", row, *lines[3:]]) + "\n")
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              *SMALL_STUDY, "--set", f"paths.fuel_catalog={catalog}"])
    assert rc == 2
    width = len(row.split(","))
    assert f"{catalog}: row 4: expected 7 fields, got {width}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_catalog_wind_exp_that_overflows_is_exit_2(study_dir, tmp_path, capsys):
    """A wind exponent whose wind factor overflows in some hour's wind
    stops simulate, naming the fuel, the exponent and the wind speed: an
    infinite factor would make the fuel's edges free."""
    lines = (study_dir / "fuel_catalog.csv").read_text().splitlines()
    assert lines[2] == "1,grass,1,15.0,0.4,1.0,1.0"
    catalog = tmp_path / "fuel_catalog.csv"
    catalog.write_text("\n".join([*lines[:2], "1,grass,1,15.0,0.4,500.0,1.0", *lines[3:]]) + "\n")
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              *SMALL_STUDY, "--set", f"paths.fuel_catalog={catalog}"])
    assert rc == 2
    assert "fuel 1: wind_exp 500 overflows the wind factor at wind speed " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_catalog_wind_factor_above_its_cap_is_exit_2(study_dir, tmp_path, capsys):
    """A wind factor that is finite but above WIND_FACTOR_MAX stops
    simulate as an overflowing one does: the fuel's edges would be all but
    free, so a fire would cross whole components at minute 0."""
    lines = (study_dir / "fuel_catalog.csv").read_text().splitlines()
    catalog = tmp_path / "fuel_catalog.csv"
    catalog.write_text("\n".join([*lines[:2], "1,grass,1,15.0,0.4,30.0,1.0", *lines[3:]]) + "\n")
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              *SMALL_STUDY, "--set", f"paths.fuel_catalog={catalog}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fuel 1: wind_exp 30 overflows the wind factor at wind speed " in err
    speed = float(err.split("wind speed ")[1].split(" m/s")[0])
    assert 1e3 < wind_factor(speed, 0.0, 180.0, 0.4, 30.0) < math.inf  # downwind: the largest
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fname, line, text", [
    ("slope.asc", 0, "ncols 1e400"), ("fuel.asc", 6, "nan"), ("fuel.asc", 6, "1.4")])
def test_bad_landscape_grid_is_exit_2(study_dir, tmp_path, capsys, fname, line, text):
    """A grid count that is not a whole number, or a fuel cell that is not
    a catalog id, stops simulate with exit 2 naming the file: no traceback,
    no numpy warning and no run on a truncated or rounded value."""
    land = tmp_path / "landscape"
    shutil.copytree(study_dir / "landscape", land)
    lines = (land / fname).read_text().splitlines()
    lines[line] = text if line == 0 else " ".join([text, *lines[line].split()[1:]])
    (land / fname).write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["simulate", "--config", str(study_dir / "study.ini"),
                  "--out", str(tmp_path / "run"), *SMALL_STUDY,
                  "--set", f"paths.landscape_dir={land}"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {land / fname}: ")
    assert not (tmp_path / "run").exists()


def test_weather_ending_after_year_9999_is_exit_2(study_dir, tmp_path, capsys):
    """A weather year whose last hour is 9999-12-31T23:00 has no
    representable end, so it stops simulate with a message rather than
    with a traceback when a coverage message would print that end."""
    lines = (study_dir / "weather.csv").read_text().splitlines()
    rows = [f"9999-12-31T{h:02d}:00Z," + line.split(",", 1)[1] for h, line in enumerate(lines[1:25])]
    weather = tmp_path / "weather.csv"
    weather.write_text("\n".join([lines[0], *rows]) + "\n")
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              *SMALL_STUDY, "--set", "study.year=9999", "--set", f"paths.weather={weather}"])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {weather}: weather series from "
                                       "9999-12-31T00:00:00+00:00 ends after year 9999\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("override, named", [
    pytest.param("study.year=2021",
                 "study.seasons start 2021-01-01T12:00Z (by default from study.year and "
                 "study.ignition_hour): instant 2021-01-01T12:00:00+00:00 outside series coverage",
                 id="season-start"),
    pytest.param("study.duration_hours=9000",
                 "study.duration_hours = 9000: a 9000 h fire from 2022-01-01T12:00:00+00:00 "
                 "outlasts the 8760 h weather series", id="duration"),
])
def test_uncovered_fire_names_the_key_that_leaves_the_weather(study_dir, tmp_path, capsys,
                                                              override, named):
    """A season that starts outside the weather names its start and
    study.seasons, which study.year sets by default; a fire that starts
    inside it but outlasts it names study.duration_hours."""
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              *SMALL_STUDY, "--set", override])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {named}")
    assert not (tmp_path / "run").exists()


def test_synth_refuses_a_year_that_ends_after_9999(tmp_path, capsys):
    """study.year = 9999 is a valid config year, but a whole synthetic
    weather year from it would end in 10000: synth names the key and
    writes nothing."""
    rc = run(["synth", "--out", str(tmp_path / "out"), "--set", "study.year=9999"])
    assert rc == 2
    assert capsys.readouterr().err == ("config error: study.year = 9999: "
                                       "a synthetic weather year must end by 9999\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extreme, same_as", [
    ("spread.humidity_ref_pct=1e308", "spread.humidity_ref_pct=1e6"),
    ("spread.min_ros_m_min=1e-320", "spread.min_ros_m_min=0"),
])
def test_extreme_spread_values_saturate(study_dir, tmp_path, extreme, same_as):
    """A humidity reference too large for any float moisture factor
    saturates at the factor's clamp, as a large finite one does; a
    subnormal ROS floor makes no edge impassable, as no floor does.
    Neither raises nor warns, and each writes the results of its twin."""
    results = []
    for k, value in enumerate((extreme, same_as)):
        out = tmp_path / str(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(out),
                      *SMALL_STUDY, "--set", value])
        assert rc == 0
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]


def network_copy(study_dir, tmp_path, edit):
    """A copy of the synth network.json, changed in place by `edit`."""
    doc = json.loads((study_dir / "network.json").read_text())
    edit(doc)
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc))
    return path


def move_line_5_west(doc):
    assert doc["branches"][4]["id"] == 5
    doc["branches"][4]["route"][1][1] -= 0.05


def move_line_5_far_north(doc, degrees=6):
    """Line 5's waypoint `degrees` north. At 6, it is too far from the
    raster's origin to project, though each segment's own length still
    measures; at 12, its segments are too long to measure."""
    assert doc["branches"][4]["id"] == 5
    doc["branches"][4]["route"][1][0] += degrees


FAR = ("line 5: point (43.877179297574074, -120.08155617022582) too far from origin "
       "(37.85, -120.1) for a local projection")


@pytest.mark.parametrize("edit, flags, named", [
    pytest.param(move_line_5_west, [],
                 "line 5: point (-942.751, 3098.086) m outside raster extent 3840.0 x 3840.0 m",
                 id="ignition"),
    pytest.param(move_line_5_west, ["--set", "study.line_ids=6"],
                 "line 5: segment endpoint (-2770.686, 3022.200) m outside raster extent",
                 id="corridor"),
    pytest.param(move_line_5_far_north, ["--set", "study.line_ids=5"], FAR, id="far-ignition"),
    pytest.param(move_line_5_far_north, ["--set", "study.line_ids=6"], FAR, id="far-corridor"),
])
def test_route_off_the_raster_names_its_line_and_the_network(study_dir, tmp_path, capsys, edit,
                                                             flags, named):
    """A route that leaves the raster, or has a point too far from it to
    project, stops simulate with the line and the network file named,
    whether it fails placing the line's ignitions or, when only line 6 is
    ignited, building line 5's corridor."""
    network = network_copy(study_dir, tmp_path, edit)
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              "--set", f"paths.network={network}", *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {network}: {named}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda d: d["buses"][0].update(lat=95.0), "latitude 95.0 outside [-90, 90]",
                 id="latitude-95"),
    pytest.param(lambda d: d["branches"][4].update(kind="cable"),
                 "branch 5: unknown kind 'cable'", id="unknown-kind"),
    pytest.param(lambda d: d["branches"][11].update(route=[[37.86, -120.09], [37.87, -120.08]]),
                 "link 12 must not carry a route", id="link-with-route"),
    pytest.param(lambda d: d["branches"][5].update(id=5), "duplicate branch id 5",
                 id="repeated-branch-id"),
    pytest.param(lambda d: d["branches"][4].update(to=99), "branch 5 references missing bus 99",
                 id="missing-bus"),
    pytest.param(lambda d: d["branches"][4].update(route=d["branches"][4]["route"][:1]),
                 "line 5 has 1 route points, needs 2+", id="one-point-route"),
    pytest.param(lambda d: d["branches"][4]["route"].insert(0, [37.9, -120.09]),
                 "line 5 route endpoint (37.9, -120.09) does not coincide with bus 2 at",
                 id="endpoint-off-bus"),
    pytest.param(lambda d: d["buses"][0].update(id=True),
                 "malformed network record: ValueError('id True is not a whole number')",
                 id="boolean-id"),
    pytest.param(lambda d: move_line_5_far_north(d, 12),
                 "line 5: segment (37.87868116465596, -120.08574059844555) to "
                 "(49.877179297574074, -120.08155617022582) too long for a local projection",
                 id="far-segment"),
])
def test_network_fault_names_the_file(study_dir, tmp_path, capsys, edit, named):
    """Each fault found while building the network's buses, branches and
    topology stops simulate with the network file named first."""
    network = network_copy(study_dir, tmp_path, edit)
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              "--set", f"paths.network={network}"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {network}: {named}")
    assert not (tmp_path / "run").exists()


def test_network_with_no_lines_is_exit_2(study_dir, tmp_path, capsys):
    """A network whose branches are all links has no fire to start:
    simulate names the file and writes nothing, rather than an empty
    results.csv that assess then refuses."""
    def links_only(doc):
        for b in doc["branches"]:
            b["kind"] = "link"
            b.pop("route", None)

    network = network_copy(study_dir, tmp_path, links_only)
    rc = run(["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path / "run"),
              "--set", f"paths.network={network}"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {network}: no branch is a line, so no fire can start\n"
    assert not (tmp_path / "run").exists()


def test_bad_seed_type_is_exit_2(tmp_path, capsys):
    ini = tmp_path / "study.ini"
    ini.write_text("[study]\nseed = banana\n")
    rc = run(["simulate", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_missing_results_file_is_exit_2(study_dir, tmp_path, capsys):
    rc = run(["assess", "--config", str(study_dir / "study.ini"),
              "--out", str(tmp_path / "rep"), "--results", str(tmp_path / "absent.csv")])
    assert rc == 2
    assert "absent.csv" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_on_empty_dir_is_exit_2(tmp_path, capsys):
    rc = run(["report", str(tmp_path)])
    assert rc == 2
    assert "missing report file" in capsys.readouterr().err


def test_bad_set_syntax_is_exit_2(tmp_path, capsys):
    rc = run(["synth", "--out", str(tmp_path), "--set", "nonsense"])
    assert rc == 2
    assert "--set" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


# ----------------------------------------------------------- config schema


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    config = cli.load_config(tmp_path / "absent.ini", [], require=False)
    assert config.study == StudyConfig()
    assert config.paths["network"] == tmp_path / "network.json"


def test_config_lists_and_absolute_paths(tmp_path):
    config = cli.load_config(tmp_path / "absent.ini", [
        "study.line_ids=6, 10", "study.seasons=2022-02-01T06:00Z,2022-08-01T18:00Z",
        "paths.weather=/data/wx.csv",
    ], require=False, seed=7)
    assert config.study.line_ids == (6, 10)
    assert config.study.seasons == (datetime(2022, 2, 1, 6, tzinfo=timezone.utc),
                                    datetime(2022, 8, 1, 18, tzinfo=timezone.utc))
    assert config.study.seed == 7
    assert config.paths["weather"] == Path("/data/wx.csv")


@pytest.mark.parametrize("bad, named", [
    (["--set", "study.duraton_hours=1"], "study.duraton_hours"),
    (["--set", "sprad.min_ros=5"], "sprad.min_ros"),
    (["--set", "spread.min_ros_m_min=nan"], "spread.min_ros_m_min"),
    (["--set", "costs.cbe_per_acre=inf"], "costs.cbe_per_acre"),
    (["--set", "study.duration_hours=inf"], "study.duration_hours"),
    (["--set", "spread.max_eccentricity=inf"], "spread.max_eccentricity"),
    (["--workers", "0"], "--workers"),
    (["--workers", "-3"], "--workers"),
    (["--set", "study.duration_hours=1e300"], "study.duration_hours"),
    # domain errors of each dataclass name the ini key, not the field
    (["--set", "study.ignitions_per_line=0"], "study.ignitions_per_line"),
    (["--set", "spread.humidity_ref_pct=0"], "spread.humidity_ref_pct"),
    (["--set", "costs.cbe_per_acre=0"], "costs.cbe_per_acre"),
    # a named fuel catalog must exist: no fallback to the built-in one
    (["--set", "paths.fuel_catalog=nosuch.csv"], "nosuch.csv"),
    # a repeated season instant would write every row under one season
    (["--set", "study.seasons=2022-01-01T12:00Z,2022-01-01T12:00Z"], "study.seasons"),
    (["--seed", "-1"], "study.seed"),
    # the lattice is the 16-neighborhood only
    (["--set", "spread.neighborhood=8"], "spread.neighborhood"),
])
def test_bad_config_input_is_exit_2(study_dir, tmp_path, capsys, bad, named):
    argv = ["simulate", "--config", str(study_dir / "study.ini"), "--out", str(tmp_path),
            *SMALL_STUDY, *bad]
    assert exit_code(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("flags, named", [
    (["report", "REP", "--top", "0"], "--top"),
    (["report", "REP", "--top", "-1"], "--top"),
    (["synth", "--out", "NEW", "--size", "1"], "--size"),
    (["synth", "--out", "NEW", "--size", "0"], "--size"),
    # windows too small for the network layout's margins
    (["synth", "--out", "NEW", "--size", "4"], "--size 4 at --cell-size 30 m"),
    (["synth", "--out", "NEW", "--size", "8"], "--size 8 at --cell-size 30 m"),
    # flags a command would ignore are not accepted
    (["report", "REP", "--set", "bogus.key=1"], "--set"),
    (["report", "REP", "--workers", "2"], "--workers"),
    (["synth", "--out", "NEW", "--workers", "2"], "--workers"),
    (["synth", "--out", "NEW", "--year", "2021"], "--year"),
    # a --config that is named must exist, whether or not the command needs one
    (["synth", "--out", "NEW", "--config", "TYPO"], "typo.ini"),
    (["assess", "--from-tables", "TABLE1", "TABLE2", "--config", "TYPO", "--out", "NEW"],
     "typo.ini"),
    (["synth", "--out", "NEW", "--seed", "-1"], "study.seed"),
    # cell sizes whose landscape cannot be built
    (["synth", "--out", "NEW", "--cell-size", "1e-300"], "--size 128 at --cell-size 1e-300 m: "),
    (["synth", "--out", "NEW", "--cell-size", "1e308"], "--size 128 at --cell-size 1e+308 m: "),
])
def test_bad_flag_is_usage_error(study_dir, small_run, tmp_path, capsys, flags, named):
    """Flag values out of range, flags the command does not take, and
    missing files they name exit 2 with a message that names the flag or
    file, and write nothing."""
    _, rep = small_run
    tokens = {"REP": str(rep), "NEW": str(tmp_path / "new"), "TYPO": str(tmp_path / "typo.ini"),
              "TABLE1": str(study_dir / "table1.csv"), "TABLE2": str(study_dir / "table2.csv")}
    argv = [tokens.get(a, a) for a in flags]
    assert exit_code(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_config_values_are_literal(study_dir, tmp_path):
    """No % interpolation, and the bundled study's digest is unchanged."""
    config = cli.load_config(tmp_path / "absent.ini", ["paths.network=a%b.json"], require=False)
    assert config.paths["network"] == tmp_path / "a%b.json"
    bundled = cli.load_config(study_dir / "study.ini", [], require=True)
    assert bundled.sha256 == "0fa6c891a0e42f7d68c2d8fd08fdebec403aad60facc8d192dee937c18183ec8"


def test_unknown_section_in_ini_is_exit_2(tmp_path, capsys):
    ini = tmp_path / "study.ini"
    ini.write_text("[study]\nseed = 1\n\n[extra]\n")
    assert run(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert "[extra]" in capsys.readouterr().err


def _valid(key, text):
    """Whether `text` is a value the study accepts for `key`, judged
    from the documented domains alone."""
    text = text.strip()
    try:
        if key in INT_KEYS:
            v = int(text)
            return {"study.ignitions_per_line": v >= 1, "study.year": 1 <= v <= 9999,
                    "study.ignition_hour": 0 <= v <= 23, "study.buffer_cells": v >= 0,
                    "study.seed": v >= 0,
                    "spread.neighborhood": v == 16}.get(key, True)
        if key in FLOAT_KEYS:
            v = float(text)
            return math.isfinite(v) and {"spread.min_ros_m_min": v >= 0,
                                         "spread.max_eccentricity": 0 <= v < 1}.get(key, v > 0)
        if key == "study.line_ids":
            [int(t) for t in text.split(",") if t.strip()]
        if key == "study.seasons":
            [datetime.strptime(t.strip(), "%Y-%m-%dT%H:%MZ") for t in text.split(",") if t.strip()]
    except ValueError:
        return False
    if key == "study.placement":
        return text in ("even", "seeded-random")
    return key in TEXT_KEYS


random_name = st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
config_keys = st.one_of(
    st.sampled_from(sorted(KNOWN_KEYS)),
    st.builds("{}.{}".format, st.sampled_from(cli.SECTIONS) | random_name, random_name),
)
config_values = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "", "even", "seeded-random", "6,10"]),
    st.text(max_size=20),
)


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(key=config_keys, value=config_values)
@example(key="costs.cbe_per_acre", value="4.2436455664565316e+304")
def test_config_overrides_fuzz(study_dir, fuzz_out, key, value):
    """Any --set either loads or exits 2, and loads only a known key
    with a valid value; numbers in their domain always load, except a
    cost so large that a line's loss overflows, which assess refuses."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = exit_code(["assess", "--from-tables", str(study_dir / "table1.csv"),
                        str(study_dir / "table2.csv"), "--config", str(study_dir / "study.ini"),
                        "--out", str(fuzz_out), "--set", f"{key}={value}"])
    assert rc in (0, 2)
    if rc == 0:
        assert _valid(key, value)
    elif key in INT_KEYS | FLOAT_KEYS:
        overflow = ("is not finite; costs.cbe_per_acre and costs.cbl_per_mile are too large"
                    in err.getvalue())
        assert not _valid(key, value) or key.startswith("costs.") and overflow


def test_cli_import_leaves_scipy_ndimage_out():
    """Importing the CLI loads no scipy.ndimage: the corridor dilation and
    the synth smoothing are numpy, and each CLI call skips its import."""
    code = "import sys, gridfire.cli; print('scipy.ndimage' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "False\n"
