"""Tests of the benchmark itself: the oracle, the output checks, the tracer.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import math
import shutil
from datetime import datetime, timezone

import numpy as np
import pytest

import checks
import oracle
import tracing
from gridfire import cli
from gridfire import spread as spread_mod
from gridfire.geo import GeoPoint, GridIndex
from gridfire.landscape import SynthSpec, synth_landscape
from gridfire.scenarios import StudyConfig, build_matrix
from gridfire.spread import IgnitionSpec, SpreadEngine, SpreadParams
from gridfire.weather import HOUR, WeatherSample, WeatherSeries

T0 = datetime(2022, 7, 1, 12, 0, tzinfo=timezone.utc)
INF = math.inf


def chain_costs(*hours):
    """hour_costs for a graph whose edge k has cost hours[h][k] in hour h."""
    return lambda h: hours[h]


def test_edge_keeps_progress_across_the_hour():
    # 0 -> 1 -> 2. Node 1 burns at 40 min; edge 1->2 is half crossed at
    # 60 min (cost 40) and the other half takes 10/2 min at hour 1's speed.
    got = oracle.fifo_arrival([0, 1, 2, 2], [1, 2], chain_costs([40.0, 40.0], [10.0, 10.0]), 2, 0, 120.0)
    assert got == [0.0, 40.0, 65.0]


def test_impassable_hour_makes_no_progress():
    got = oracle.fifo_arrival([0, 1, 1], [1], chain_costs([INF], [30.0]), 2, 0, 120.0)
    assert got == [0.0, 90.0]


def test_horizon_cuts_arrivals():
    got = oracle.fifo_arrival([0, 1, 2, 2], [1, 2], chain_costs([40.0, 40.0]), 1, 0, 60.0)
    assert got == [0.0, 40.0, INF]


def _land(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 25))
    return synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=30.0, origin=GeoPoint(37.85, -120.10), seed=seed,
        fuel_mix=((1, 0.45), (2, 0.25), (3, 0.15), (0, 0.15)), patch_cells=3.0,
        slope_deg=float(rng.uniform(0, 20)), aspect_deg=float(rng.uniform(0, 360)),
    )), rng


def _weather(rng, hours, constant):
    samples = []
    for h in range(hours + 1):
        if h == 0 or not constant:
            speed, direction, humidity = rng.uniform(0, 6), rng.uniform(0, 359), rng.uniform(15, 80)
        samples.append(WeatherSample(T0 + h * HOUR, float(speed), float(direction), 20.0, float(humidity)))
    return WeatherSeries(tuple(samples))


def _compare(seed, duration, constant):
    land, rng = _land(seed)
    wx = _weather(rng, math.ceil(duration), constant)
    burnable = np.argwhere(land.burnable_mask())
    r, c = burnable[rng.integers(len(burnable))]
    spec = IgnitionSpec(1, 1, GridIndex(int(r), int(c)), T0, duration)
    engine = SpreadEngine(land, SpreadParams())
    got = engine.run(spec, wx).arrival
    want = oracle.engine_arrival(engine, spec, wx)
    return got, want


@pytest.mark.parametrize("seed,duration", [(0, 1.0), (1, 0.5), (2, 1.0), (3, 0.25)])
def test_oracle_matches_program_on_one_hour_fires(seed, duration):
    got, want = _compare(seed, duration, constant=False)
    assert np.isfinite(want).sum() > 1
    assert oracle.arrival_mismatches(got, want, duration * 60.0) == 0


@pytest.mark.parametrize("seed,duration", [(4, 3.0), (5, 6.0), (6, 2.5)])
def test_oracle_matches_program_on_constant_weather(seed, duration):
    got, want = _compare(seed, duration, constant=True)
    assert np.isfinite(want).sum() > 1
    assert oracle.arrival_mismatches(got, want, duration * 60.0) == 0


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    """A small 1 h study: inputs, simulate and assess outputs."""
    d = tmp_path_factory.mktemp("study")
    sets = ["--set", "study.line_ids=1,3,20", "--set", "study.duration_hours=1"]
    assert cli.main(["synth", "--out", str(d / "study"), "--seed", "0"]) == 0
    ini = str(d / "study" / "study.ini")
    assert cli.main(["simulate", "--config", ini, "--out", str(d / "run"), *sets]) == 0
    assert cli.main(["assess", "--config", ini, "--results", str(d / "run" / "results.csv"),
                     "--out", str(d / "report"), *sets]) == 0
    study = checks.load_study(d / "study", {"study.line_ids": "1,3,20", "study.duration_hours": "1"})
    return d, study


@pytest.mark.parametrize("placement", ["even", "seeded-random"])
def test_matrix_matches_program(study_run, placement):
    _, study = study_run
    study.config.set("study", "placement", placement)
    try:
        mine = checks.scenario_matrix(study)
        land = cli.load_landscape(study_run[0] / "study" / "landscape")
        net = cli.load_network(study_run[0] / "study" / "network.json")
        cfg = StudyConfig(line_ids=(1, 3, 20), placement=placement, duration_hours=1.0)
        theirs = build_matrix(net, cfg, land.frame)
    finally:
        study.config.set("study", "placement", "even")
    assert [(s.line_id, s.ignition, s.row, s.col, s.start) for s in mine] == [
        (s.line_id, s.ignition_index, s.cell.row, s.cell.col, s.start) for s in theirs
    ]


def _check(d, study):
    rows = checks.read_results(d / "run" / "results.csv")
    warnings = json.loads((d / "run" / "run_meta.json").read_text())["warnings"]
    bad, problems = checks.check_scenarios(study, checks.scenario_matrix(study), rows, warnings)
    return bad, problems + checks.check_risk(study, rows, d / "report" / "risk.csv") + checks.check_seasons(rows)


def test_checks_pass_on_program_outputs(study_run):
    d, study = study_run
    assert any(not s.burnable for s in checks.scenario_matrix(study))  # zero burns are covered
    assert _check(d, study) == ({}, [])


@pytest.mark.parametrize("field,value,expect", [
    (4, lambda v: repr(float(v) * 1.001), "burned_acres"),
    (5, lambda v: "", "own line"),
    (6, lambda v: repr(float(v) + 0.5), "affected_miles"),
])
def test_checks_catch_a_corrupted_row(study_run, tmp_path, field, value, expect):
    d, study = study_run
    shutil.copytree(d, tmp_path / "c")
    path = tmp_path / "c" / "run" / "results.csv"
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines[1:], start=1) if line.split(",")[3] != "0")
    parts = lines[k].split(",")
    parts[field] = value(parts[field])
    lines[k] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    bad, _ = _check(tmp_path / "c", study)
    assert list(bad) == [k - 1] and any(expect in why for why in bad[k - 1])


def test_checks_catch_rows_out_of_order(study_run, tmp_path):
    d, study = study_run
    shutil.copytree(d, tmp_path / "c")
    path = tmp_path / "c" / "run" / "results.csv"
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    bad, _ = _check(tmp_path / "c", study)
    assert {0, 1} <= set(bad) and "out of matrix order" in bad[0]


def test_checks_catch_a_wrong_metric(study_run, tmp_path):
    d, study = study_run
    shutil.copytree(d, tmp_path / "c")
    path = tmp_path / "c" / "report" / "risk.csv"
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[4] = repr(float(parts[4]) * (1 + 1e-6))
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    _, problems = _check(tmp_path / "c", study)
    assert any("metric" in p for p in problems)


def test_tracer_counts_and_restores(study_run):
    d, _ = study_run
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--config", str(d / "study" / "study.ini"), "--out", str(d / "t"),
                         "--set", "study.line_ids=1,3,20", "--set", "study.duration_hours=1"]) == 0
    finally:
        tracer.remove()
    assert [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES] == originals
    m = tracing.round_metrics(tracer)
    rows = checks.read_results(d / "t" / "results.csv")
    burning = sum(r.burned_cells > 0 for r in rows)
    assert m["spread.run_calls"] == len(rows)
    assert m["spread.reach_calls"] == m["spread.hour_searches"] == burning
    assert m["spread.restart_cells"] == burning  # 1 h fires restart only from the ignition
    assert m["spread.settled_cells"] == sum(r.burned_cells for r in rows)
    assert m["spread.edges"] > 0 and 0 < m["spread.recost_s"] < m["spread.run_s"]


def test_absent_boundary_reads_zero(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + ((spread_mod, "no_such_solver", "spread.search"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert tracing.round_metrics(tracer)["spread.hour_searches"] == 0
