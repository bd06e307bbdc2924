"""Acceptance gate for the shipped engine.

One test per release criterion, named test_criterion_N_*. Run

    pytest tests/test_acceptance.py -v

for the one-line-per-criterion view; add -s (or -rA) to see the measured
values each criterion prints. Each test asserts both the numeric tolerance
and its runtime budget, so a pass here means the build meets the contract
on this machine.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from gridfire import cli
from gridfire.fixtures import (
    REFERENCE_BURNED_ACRES,
    REFERENCE_DAMAGED_MILES,
    SEASON_LABELS,
    STUDY_ORIGIN,
    ieee30_network,
    study_landscape,
    study_weather,
)
from gridfire.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    GridIndex,
    METERS_PER_MILE,
    RasterFrame,
    polyline_length_miles,
)
from gridfire.landscape import SynthSpec, synth_landscape
from gridfire.network import Branch, Bus, GridNetwork, ignitable_lines, line_cells
from gridfire.risk import CostParams, rank_lines, seasonal_average
from gridfire.scenarios import StudyConfig, build_matrix, place_ignitions, run_batch
from gridfire.spread import SpreadEngine, SpreadParams
from gridfire.weather import HOUR, WeatherSample, WeatherSeries

from test_geo import segment_cells_oracle, _traverse_units
from test_scenarios import arc_point
from test_spread import T0, bellman_ford_arrival, const_wx, custom_land, flat_land, ignite

M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0

LINK_IDS = {11, 12, 13, 14, 15, 16, 36}

# running total for the spread-physics criterion, which has one shared budget
_C5_ELAPSED = {}


# --------------------------------------------------------------- criterion 1


def test_criterion_1_reference_table_row_averages():
    t0 = time.perf_counter()
    acres_avg = seasonal_average(list(REFERENCE_BURNED_ACRES[6]))
    miles_avg = seasonal_average(list(REFERENCE_DAMAGED_MILES[6]))
    dt = time.perf_counter() - t0
    assert abs(acres_avg - 4236.2) <= 0.05
    assert abs(miles_avg - 215.36) <= 0.005
    assert dt < 1.0
    print(f"criterion 1: PASS acres_avg={acres_avg!r} miles_avg={miles_avg!r} "
          f"({dt * 1e3:.2f} ms)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_ranking_from_reference_tables(study_dir, tmp_path):
    t0 = time.perf_counter()
    rc = cli.main(["assess", "--from-tables", str(study_dir / "table1.csv"),
                   str(study_dir / "table2.csv"), "--out", str(tmp_path)])
    dt = time.perf_counter() - t0
    assert rc == 0

    rows = (tmp_path / "risk.csv").read_text().splitlines()[1:]
    by_line = {}
    for row in rows:
        p = row.split(",")
        by_line[int(p[0])] = (float(p[4]), int(p[5]))  # metric, rank
    m6, rank6 = by_line[6]
    m10, rank10 = by_line[10]
    assert (m6, rank6) == (1.0, 1)
    assert rank10 == 2
    assert abs(m10 - 0.730) <= 0.002
    assert dt < 2.0
    print(f"criterion 2: PASS line6 metric={m6} rank={rank6}; "
          f"line10 metric={m10:.6f} rank={rank10} ({dt * 1e3:.1f} ms)")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_summer_winter_contrast():
    t0 = time.perf_counter()
    w = SEASON_LABELS.index("winter")
    s = SEASON_LABELS.index("summer")
    winter_mean = np.mean([v[w] for v in REFERENCE_BURNED_ACRES.values()])
    summer_mean = np.mean([v[s] for v in REFERENCE_BURNED_ACRES.values()])
    ratio = summer_mean / winter_mean
    dt = time.perf_counter() - t0
    assert abs(ratio - 4.81) <= 0.05
    assert dt < 1.0
    print(f"criterion 3: PASS summer/winter mean ratio={ratio:.5f} ({dt * 1e3:.2f} ms)")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_full_synthetic_batch():
    net = ieee30_network()
    ids = sorted(b.id for b in ignitable_lines(net))
    assert len(ids) == 34
    assert set(ids) == set(range(1, 42)) - LINK_IDS

    land = study_landscape(seed=0)
    assert land.frame.nrows == land.frame.ncols == 128
    assert land.frame.cell_size == 30.0
    wx = study_weather(year=2022, seed=0)
    cfg = StudyConfig()
    specs = build_matrix(net, cfg, land.frame)
    assert len(specs) == 408

    t0 = time.perf_counter()
    results = run_batch(specs, land, wx, net, cfg, workers=1)
    dt = time.perf_counter() - t0

    assert len(results) == 408
    per_line = Counter(r.line_id for r in results)
    assert set(per_line) == set(ids)
    assert all(v == 12 for v in per_line.values())
    assert dt <= 300.0
    print(f"criterion 4: PASS 408 scenarios over 34 lines in {dt:.1f} s "
          f"(budget 300 s)")


# --------------------------------------------------------------- criterion 5


def test_criterion_5a_circular_growth():
    t0 = time.perf_counter()
    land = flat_land(96)
    b = SpreadEngine(land).run(ignite(GridIndex(48, 48), 1.0), const_wx())
    burned_m2 = float(b.status.sum()) * 30.0 * 30.0
    expected = math.pi * (15.0 * 60.0) ** 2
    err = abs(burned_m2 - expected) / expected
    dt = time.perf_counter() - t0
    _C5_ELAPSED["a"] = dt
    assert err < 0.12
    print(f"criterion 5a: PASS circular-area error {err * 100:.2f}% (< 12%) "
          f"({dt:.2f} s)")


def test_criterion_5b_duration_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for k in range(100):
        n = int(rng.integers(10, 17))
        land = synth_landscape(SynthSpec(
            nrows=n, ncols=n, cell_size=30.0, origin=STUDY_ORIGIN, seed=k,
            fuel_mix=((1, 0.5), (2, 0.2), (3, 0.15), (0, 0.15)), patch_cells=3.0,
            slope_deg=float(rng.uniform(0, 25)), aspect_deg=float(rng.uniform(0, 360)),
        ))
        hours = 10
        wx = WeatherSeries(tuple(
            WeatherSample(T0 + h * HOUR, float(rng.uniform(0, 8)),
                          float(rng.uniform(0, 360)), 20.0,
                          float(rng.uniform(10, 90)))
            for h in range(hours)
        ))
        burnable = np.argwhere(land.fuel != 0)
        r, c = burnable[rng.integers(len(burnable))]
        cell = GridIndex(int(r), int(c))
        t_short = float(rng.uniform(0.1, 2.0))
        t_long = t_short + float(rng.uniform(0.5, 4.0))
        b_short = SpreadEngine(land).run(ignite(cell, t_short), wx)
        b_long = SpreadEngine(land).run(ignite(cell, t_long), wx)
        assert np.all(b_long.status[b_short.status]), f"config {k} shrank"
        assert np.all(b_long.arrival[b_short.status] == b_short.arrival[b_short.status])
    dt = time.perf_counter() - t0
    _C5_ELAPSED["b"] = dt
    print(f"criterion 5b: PASS 100 randomized configs monotone ({dt:.1f} s)")


def test_criterion_5c_zero_fuel_barrier():
    t0 = time.perf_counter()
    fuel = np.ones((7, 7), dtype=int)
    fuel[3, :] = 0
    land = custom_land(fuel)
    b = SpreadEngine(land).run(ignite(GridIndex(0, 3), 48.0), const_wx(hours=50))
    assert sorted(set(np.nonzero(b.status)[0].tolist())) == [0, 1, 2]
    assert not b.status[3:, :].any()

    fuel_v = np.ones((7, 7), dtype=int)
    fuel_v[:, 3] = 0
    land_v = custom_land(fuel_v)
    bv = SpreadEngine(land_v).run(ignite(GridIndex(3, 0), 48.0), const_wx(hours=50))
    assert not bv.status[:, 3:].any()
    dt = time.perf_counter() - t0
    _C5_ELAPSED["c"] = dt
    print(f"criterion 5c: PASS barriers impassable both orientations ({dt:.2f} s)")


def test_criterion_5d_shortest_path_oracle():
    t0 = time.perf_counter()
    for seed in (10, 11, 12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 21))
        land = synth_landscape(SynthSpec(
            nrows=n, ncols=n, cell_size=30.0, origin=STUDY_ORIGIN, seed=seed,
            fuel_mix=((1, 0.45), (2, 0.25), (3, 0.15), (0, 0.15)), patch_cells=3.0,
            slope_deg=float(rng.uniform(0, 20)), aspect_deg=float(rng.uniform(0, 360)),
        ))
        w = WeatherSample(T0, float(rng.uniform(0, 6)), float(rng.uniform(0, 360)),
                          20.0, float(rng.uniform(15, 80)))
        duration = float(rng.uniform(0.3, 6.0))
        wx = WeatherSeries(tuple(
            WeatherSample(T0 + h * HOUR, w.wind_speed, w.wind_dir_from,
                          w.temperature, w.rel_humidity)
            for h in range(int(duration) + 2)
        ))
        burnable = np.argwhere(land.fuel != 0)
        r, c = burnable[rng.integers(len(burnable))]
        cell = GridIndex(int(r), int(c))

        oracle = bellman_ford_arrival(land, w, cell, SpreadParams())
        got = SpreadEngine(land).run(ignite(cell, duration), wx)
        within = oracle <= duration * 60.0
        np.testing.assert_array_equal(got.status, within)
        assert np.all(got.arrival[within] == oracle[within])
        assert np.all(np.isinf(got.arrival[~within]))
    dt = time.perf_counter() - t0
    _C5_ELAPSED["d"] = dt
    print(f"criterion 5d: PASS exact match on 3 constant-weather grids ({dt:.1f} s)")


def test_criterion_5e_worker_determinism():
    t0 = time.perf_counter()
    land = study_landscape(seed=0)
    wx = study_weather(year=2022, seed=0)
    net = ieee30_network()
    cfg = StudyConfig(line_ids=(5, 6, 10), duration_hours=2.0)
    specs = build_matrix(net, cfg, land.frame)
    assert len(specs) == 36
    seq = run_batch(specs, land, wx, net, cfg, workers=1)
    par2 = run_batch(specs, land, wx, net, cfg, workers=2)
    par4 = run_batch(specs, land, wx, net, cfg, workers=4)
    assert seq == par2 == par4
    dt = time.perf_counter() - t0
    _C5_ELAPSED["e"] = dt

    total = sum(_C5_ELAPSED.values())
    assert total <= 120.0, f"spread-physics criterion took {total:.1f} s"
    print(f"criterion 5e: PASS 36 scenarios identical at 1/2/4 workers ({dt:.1f} s); "
          f"criterion 5 total {total:.1f} s (budget 120 s)")


# --------------------------------------------------------------- criterion 6


def toy_network(lengths):
    """One straight line per id, geodesically exact to the mile figure."""
    buses, branches = [], []
    for k, (j, miles) in enumerate(sorted(lengths.items())):
        dlat = miles * METERS_PER_MILE / M_PER_DEG
        a = Bus(1000 + 2 * k, GeoPoint(35.0 + 0.03 * k, -119.0))
        b = Bus(1001 + 2 * k, GeoPoint(35.0 + 0.03 * k + dlat, -119.0))
        route = (a.location, b.location)
        buses += [a, b]
        branches.append(Branch(id=j, kind="line", from_bus=a.id, to_bus=b.id,
                               route=route, length_miles=polyline_length_miles(route)))
    return GridNetwork(buses=tuple(buses), branches=tuple(branches))


def test_criterion_6_metric_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for k in range(200):
        n_lines = int(rng.integers(2, 9))
        ids = sorted(int(j) for j in rng.choice(np.arange(1, 41), n_lines, replace=False))
        lengths = {j: float(rng.uniform(0.4, 18.0)) for j in ids}
        net = toy_network(lengths)
        x_miles = {j: net.branch(j).length_miles for j in ids}
        n_seasons = int(rng.integers(1, 6))
        costs = CostParams(cbe=float(rng.uniform(1e3, 1e5)),
                           cbl=float(rng.uniform(1e4, 1e6)))

        acres = {j: [float(rng.uniform(0.0, 5000.0)) for _ in range(n_seasons)]
                 for j in ids}
        sets = {}
        for j in ids:
            per_season = []
            for _ in range(n_seasons):
                n_ign = int(rng.integers(1, 4))
                per_season.append([
                    frozenset({j}) | frozenset(
                        int(v) for v in rng.choice(ids, int(rng.integers(0, n_lines)),
                                                   replace=False))
                    for _ in range(n_ign)
                ])
            sets[j] = per_season

        # per season, the mean over ignitions of the affected lines' miles
        season_miles = {
            j: [sum(sum(x_miles[m] for m in s) for s in per_ign) / len(per_ign)
                for per_ign in sets[j]]
            for j in ids
        }
        recs = rank_lines(acres, season_miles, costs)
        by_line = {r.line_id: r for r in recs}
        assert sorted(by_line) == ids

        for j in ids:
            rec = by_line[j]
            assert 0.0 <= rec.metric <= 1.0
            lbe_bf = costs.cbe * sum(acres[j]) / n_seasons
            lbl_bf = costs.cbl * sum(season_miles[j]) / n_seasons
            assert rec.lbe == pytest.approx(lbe_bf, rel=1e-9)
            assert rec.lbl == pytest.approx(lbl_bf, rel=1e-9)
            assert rec.wfl == pytest.approx(lbe_bf + lbl_bf, rel=1e-9)
            # every ignition lights the line's own corridor, so the
            # reconstruction loss can never undercut the line's own length
            assert rec.lbl >= costs.cbl * x_miles[j] * (1.0 - 1e-12)

        assert recs[0].metric == 1.0
        assert max(r.metric for r in recs) == 1.0

        for lam in (0.1, 10.0):
            scaled = CostParams(cbe=costs.cbe * lam, cbl=costs.cbl * lam)
            recs2 = rank_lines(acres, {j: list(v) for j, v in season_miles.items()},
                               scaled)
            assert [r.line_id for r in recs2] == [r.line_id for r in recs]
            for r2, r1 in zip(recs2, recs):
                assert r2.metric == pytest.approx(r1.metric, rel=1e-12)
                assert r2.lbe == pytest.approx(lam * r1.lbe, rel=1e-12)

    dt = time.perf_counter() - t0
    assert dt <= 60.0
    print(f"criterion 6: PASS 200 randomized studies ({dt:.1f} s, budget 60 s)")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_traversal_and_placement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    frame = RasterFrame(nrows=20, ncols=20, origin=GeoPoint(37.8, -120.0),
                        cell_size=30.0)
    checked = 0
    for _ in range(500):
        ax, ay, bx, by = (float(v) for v in rng.uniform(0.0, 20.0, size=4))
        got = set(_traverse_units(ax, ay, bx, by, frame))
        assert got == segment_cells_oracle(ax, ay, bx, by, 20, 20)
        checked += 1
    for _ in range(500):
        ax, ay, bx, by = (int(v) / 2.0 for v in rng.integers(0, 41, size=4))
        got = set(_traverse_units(ax, ay, bx, by, frame))
        assert got == segment_cells_oracle(ax, ay, bx, by, 20, 20)
        checked += 1
    assert checked == 1000

    # whole-route corridors against the same oracle, per segment
    net = ieee30_network()
    study_frame = RasterFrame(nrows=128, ncols=128, origin=STUDY_ORIGIN,
                              cell_size=30.0)
    cs = study_frame.cell_size
    for b in ignitable_lines(net):
        pts = [study_frame.to_planar(g) for g in b.route]
        oracle = set()
        for p, q in zip(pts, pts[1:]):
            oracle |= segment_cells_oracle(p.x / cs, p.y / cs, q.x / cs, q.y / cs,
                                           128, 128)
        got = {(c.row, c.col) for c in line_cells(b, study_frame)}
        assert got == oracle, f"line {b.id} corridor mismatch"

    # even placement lands at the quarter points of every line
    for b in ignitable_lines(net):
        cells = place_ignitions(b, 3, "even", 0, study_frame)
        pts = [(pp.x, pp.y) for pp in (study_frame.to_planar(g) for g in b.route)]
        for cell, frac in zip(cells, (0.25, 0.50, 0.75)):
            x, y = arc_point(pts, frac)
            want_col = min(int(x // cs), 127)
            want_row = min(int(y // cs), 127)
            assert abs(cell.row - want_row) <= 1
            assert abs(cell.col - want_col) <= 1

    dt = time.perf_counter() - t0
    assert dt <= 30.0
    print(f"criterion 7: PASS 1000 segments + 34 corridors + quartile "
          f"placements ({dt:.1f} s)")
