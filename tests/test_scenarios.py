"""Scenario matrix construction, ignition placement, batch running, results IO."""

import math
import multiprocessing
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from gridfire.errors import CoverageError, InvalidInputError, OutOfBoundsError
from gridfire.fixtures import STUDY_ORIGIN, ieee30_network
from gridfire.geo import GridIndex, PlanarPoint, RasterFrame
from gridfire.landscape import SynthSpec, cell_acreage, synth_landscape
from gridfire.network import Corridors, ignitable_lines, line_cells
from gridfire.risk import CostParams
from gridfire.scenarios import (
    RESULTS_HEADER,
    ScenarioResult,
    StudyConfig,
    assess_results,
    build_matrix,
    place_ignitions,
    read_results,
    run_batch,
    season_tables,
    write_results,
)
from gridfire.spread import IgnitionSpec, SpreadEngine
from gridfire.weather import HOUR, WeatherSample, WeatherSeries

T0 = datetime(2022, 7, 1, 12, 0, tzinfo=timezone.utc)
FRAME = RasterFrame(nrows=128, ncols=128, origin=STUDY_ORIGIN, cell_size=30.0)


def const_wx(hours=30, start=T0):
    return WeatherSeries(tuple(
        WeatherSample(start + h * HOUR, 2.0, 225.0, 20.0, 35.0) for h in range(hours)
    ))


def small_study_cfg(**kw):
    kw.setdefault("seasons", (T0,))
    kw.setdefault("ignitions_per_line", 2)
    kw.setdefault("duration_hours", 1.0)
    return StudyConfig(**kw)


# ------------------------------------------------------------ study config


def test_study_config_validation():
    with pytest.raises(InvalidInputError):
        StudyConfig(ignitions_per_line=0)
    with pytest.raises(InvalidInputError):
        StudyConfig(seasons=())
    with pytest.raises(InvalidInputError):
        StudyConfig(duration_hours=0.0)
    with pytest.raises(InvalidInputError):
        StudyConfig(placement="everywhere")
    with pytest.raises(InvalidInputError):
        StudyConfig(buffer_cells=-1)
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        StudyConfig(seed=-1)
    with pytest.raises(InvalidInputError, match="seasons must be distinct"):
        StudyConfig(seasons=(T0, T0 + HOUR, T0))


# ------------------------------------------------------------ build_matrix


def test_build_matrix_default_counts():
    net = ieee30_network()
    specs = build_matrix(net, StudyConfig(), FRAME)
    assert len(specs) == 34 * 4 * 3 == 408
    # ordering: line asc, then season, then ignition index
    keys = [(s.line_id, s.start, s.ignition_index) for s in specs]
    assert keys == sorted(keys)
    assert {s.line_id for s in specs} == {b.id for b in ignitable_lines(net)}
    assert all(1 <= s.ignition_index <= 3 for s in specs)


def test_build_matrix_restricted():
    net = ieee30_network()
    cfg = StudyConfig(ignitions_per_line=1, seasons=(T0,), line_ids=(6,))
    specs = build_matrix(net, cfg, FRAME)
    assert len(specs) == 1
    assert specs[0].line_id == 6
    assert specs[0].start == T0
    assert specs[0].duration_hours == cfg.duration_hours


def test_build_matrix_unknown_line():
    net = ieee30_network()
    with pytest.raises(InvalidInputError, match="99"):
        build_matrix(net, StudyConfig(line_ids=(6, 99)), FRAME)
    with pytest.raises(InvalidInputError):
        build_matrix(net, StudyConfig(line_ids=(11,)), FRAME)  # that id is a link


# --------------------------------------------------------- place_ignitions


def arc_point(pts, frac):
    """Point at the given fraction of a polyline's arc length."""
    seg = [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, pts[1:])]
    target = frac * sum(seg)
    for p, q, s in zip(pts, pts[1:], seg):
        if target <= s:
            t = target / s if s > 0 else 0.0
            return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        target -= s
    return pts[-1]


def test_even_placement_quartiles():
    net = ieee30_network()
    for b in ignitable_lines(net):
        cells = place_ignitions(b, 3, "even", 0, FRAME)
        assert len(cells) == 3
        pts = [(pp.x, pp.y) for pp in (FRAME.to_planar(g) for g in b.route)]
        for cell, frac in zip(cells, (0.25, 0.50, 0.75)):
            x, y = arc_point(pts, frac)
            want = FRAME.cell_of(PlanarPoint(x, y))
            assert abs(cell.row - want.row) <= 1, (b.id, frac)
            assert abs(cell.col - want.col) <= 1, (b.id, frac)


def test_placements_lie_on_corridor():
    net = ieee30_network()
    for b in ignitable_lines(net):
        corridor = {(c.row, c.col) for c in line_cells(b, FRAME)}
        for placement in ("even", "seeded-random"):
            for cell in place_ignitions(b, 3, placement, 0, FRAME):
                assert (cell.row, cell.col) in corridor


def test_seeded_random_placement_deterministic():
    net = ieee30_network()
    b = net.branch(6)
    first = place_ignitions(b, 3, "seeded-random", 123, FRAME)
    again = place_ignitions(b, 3, "seeded-random", 123, FRAME)
    other_seed = place_ignitions(b, 3, "seeded-random", 124, FRAME)
    assert first == again
    assert first != other_seed  # overwhelmingly likely for this corridor


def test_seeded_random_differs_across_lines():
    net = ieee30_network()
    got = {tuple((c.row, c.col) for c in place_ignitions(net.branch(j), 3,
                                                         "seeded-random", 0, FRAME))
           for j in (1, 2, 3, 5, 6)}
    assert len(got) > 1


def test_place_ignitions_rejects_links_and_bad_counts():
    net = ieee30_network()
    with pytest.raises(InvalidInputError):
        place_ignitions(net.branch(11), 3, "even", 0, FRAME)
    with pytest.raises(InvalidInputError):
        place_ignitions(net.branch(6), 0, "even", 0, FRAME)


# --------------------------------------------------------------- run_batch


def batch_fixture(nrows=64, fuel_id=1):
    land = synth_landscape(SynthSpec(
        nrows=nrows, ncols=nrows, cell_size=30.0, origin=STUDY_ORIGIN, seed=2,
        slope_deg=0.0, aspect_deg=0.0, fuel_id=fuel_id,
    ))
    net = ieee30_network(width_m=nrows * 30.0, height_m=nrows * 30.0, margin_m=120.0)
    return land, net


def test_run_batch_row_per_scenario():
    land, net = batch_fixture()
    cfg = small_study_cfg(line_ids=(6, 10), duration_hours=0.5)
    specs = build_matrix(net, cfg, land.frame)
    results = run_batch(specs, land, const_wx(), net, cfg, workers=1)
    assert len(results) == len(specs) == 4
    for spec, res in zip(specs, results):
        assert res.line_id == spec.line_id
        assert res.ignition_index == spec.ignition_index
        assert res.burned_cell_count > 0
        assert res.line_id in res.affected_line_ids  # a fire lights its own corridor
        assert res.affected_miles > 0.0
        assert res.warning is None


def test_run_batch_nonburnable_rows_zeroed():
    land, net = batch_fixture(fuel_id=0)
    cfg = small_study_cfg(line_ids=(6,), duration_hours=0.5)
    specs = build_matrix(net, cfg, land.frame)
    results = run_batch(specs, land, const_wx(), net, cfg, workers=1)
    assert len(results) == len(specs)
    for res in results:
        assert res.burned_cell_count == 0
        assert res.burned_acres == 0.0
        assert res.affected_line_ids == frozenset()
        assert res.affected_miles == 0.0
        assert res.warning is not None


def test_run_batch_worker_determinism_small():
    land, net = batch_fixture()
    cfg = small_study_cfg(line_ids=(5, 6), duration_hours=0.5)
    specs = build_matrix(net, cfg, land.frame)
    seq = run_batch(specs, land, const_wx(), net, cfg, workers=1)
    par = run_batch(specs, land, const_wx(), net, cfg, workers=2)
    assert seq == par


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="run_batch runs in-process without fork")
def test_run_batch_pool_holds_one_process_per_slice(monkeypatch):
    """A pool larger than the batch's slices would only fork idle
    processes. A fake pool records its size and maps in-process, so no
    process starts however many workers are asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return [func(item) for item in items]

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", InProcessPool)
    land, net = batch_fixture()
    cfg = small_study_cfg(line_ids=(5, 6), duration_hours=0.5, seasons=(T0, T0 + 3 * HOUR))
    specs = build_matrix(net, cfg, land.frame)
    wx = const_wx()
    seq = run_batch(specs, land, wx, net, cfg, workers=1)
    # Two seasons of four specs each: at most four slices per season, and
    # a pool of at most `workers` processes.
    assert run_batch(specs, land, wx, net, cfg, workers=5000) == seq
    assert run_batch(specs, land, wx, net, cfg, workers=3) == seq
    assert sizes == [8, 3]


def test_run_batch_groups_match_per_spec_runs():
    """Shuffled, interleaved starts and mixed durations: at any worker
    count, the start-time groups give in spec order what one engine.run
    per spec gives. Some ignition cells repeat within a start group, under
    other lines and ignition indices, with the same or another duration."""
    n = 48
    land = synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=30.0, origin=STUDY_ORIGIN, seed=4,
        fuel_mix=((1, 0.5), (2, 0.2), (3, 0.15), (0, 0.15)), patch_cells=3.0,
        elevation_relief=40.0,
    ))
    net = ieee30_network(width_m=n * 30.0, height_m=n * 30.0, margin_m=120.0)
    rng = np.random.default_rng(11)
    wx = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, float(rng.uniform(0, 6)), float(rng.uniform(0, 360)),
                      20.0, float(rng.uniform(15, 70)))
        for h in range(30)
    ))
    starts = (T0 + 3 * HOUR, T0, T0 + 20 * HOUR)
    cfg = StudyConfig(seasons=starts, duration_hours=3.0)
    burnable = np.argwhere(land.burnable_mask())
    rock = np.argwhere(~land.burnable_mask())[0]
    line_ids = [b.id for b in ignitable_lines(net)]
    specs = []
    for k, s in enumerate((1, 0, 2, 0, 1, 2, 2, 0, 1, 0, 2, 1, 0, 1, 2)):
        r, c = rock if k == 5 else burnable[rng.integers(len(burnable))]
        specs.append(IgnitionSpec(
            line_id=line_ids[k % len(line_ids)], ignition_index=k + 1,
            cell=GridIndex(int(r), int(c)), start=starts[s],
            duration_hours=(0.4, 3.0, 1.0, 2.5)[k % 4],
        ))
    for k, (twin, hours) in enumerate(((1, 3.0), (3, 2.5), (1, 3.0), (1, 1.0), (2, 1.0))):
        specs.insert(3 * k + 6, replace(
            specs[twin], line_id=line_ids[(k + 3) % len(line_ids)], ignition_index=20 + k,
            duration_hours=hours,
        ))

    eng = SpreadEngine(land, cfg.spread)
    corridors = Corridors(ignitable_lines(net), land.frame, cfg.buffer_cells)
    want = []
    for spec in specs:
        burn = eng.run(spec, wx)
        burned = np.isfinite(burn.arrival)
        hit, _ = corridors.affected(burned)
        count = int(burned.sum())
        want.append((spec.line_id, spec.ignition_index, starts.index(spec.start),
                     count, count * cell_acreage(land),
                     hit, sum(net.branch(j).length_miles for j in sorted(hit)), burn.warning))
    assert want[5][3] == 0 and "non-burnable" in want[5][7]
    assert sum(w[3] > 1 for w in want) >= 16

    for workers in (1, 2, 4):
        got = run_batch(specs, land, wx, net, cfg, workers=workers)
        assert len(got) == len(specs)
        for res, w in zip(got, want):
            assert (res.line_id, res.ignition_index, res.season_index, res.burned_cell_count,
                    res.burned_acres, res.affected_line_ids) == w[:6], workers
            assert res.affected_miles == pytest.approx(w[6], rel=1e-12)
            assert res.warning == w[7]


def test_run_batch_checks_coverage_up_front():
    land, net = batch_fixture()
    cfg = small_study_cfg(line_ids=(6,), duration_hours=10.0)
    specs = build_matrix(net, cfg, land.frame)
    with pytest.raises(CoverageError):
        run_batch(specs, land, const_wx(hours=3), net, cfg, workers=1)


def test_run_batch_off_raster_ignition_names_its_line():
    land, net = batch_fixture()
    cfg = small_study_cfg(line_ids=(10,))
    specs = build_matrix(net, cfg, land.frame)
    specs.append(replace(specs[0], line_id=6, cell=GridIndex(3, land.ncols)))
    with pytest.raises(OutOfBoundsError, match="of line 6"):
        SpreadEngine(land, cfg.spread).run(specs[-1], const_wx())
    for workers in (1, 2):
        with pytest.raises(OutOfBoundsError, match="of line 6"):
            run_batch(specs, land, const_wx(), net, cfg, workers=workers)


def test_run_batch_empty():
    land, net = batch_fixture()
    assert run_batch([], land, const_wx(), net, small_study_cfg(), workers=1) == []


# ------------------------------------------------------------- results IO


def sample_results():
    return [
        ScenarioResult(line_id=6, ignition_index=1, season_index=0,
                       burned_cell_count=120, burned_acres=26.7,
                       affected_line_ids=frozenset({5, 6}), affected_miles=1.25),
        ScenarioResult(line_id=6, ignition_index=2, season_index=0,
                       burned_cell_count=0, burned_acres=0.0,
                       affected_line_ids=frozenset(), affected_miles=0.0),
        ScenarioResult(line_id=6, ignition_index=1, season_index=1,
                       burned_cell_count=40, burned_acres=8.9,
                       affected_line_ids=frozenset({6}), affected_miles=0.5),
        ScenarioResult(line_id=6, ignition_index=2, season_index=1,
                       burned_cell_count=41, burned_acres=9.1,
                       affected_line_ids=frozenset({6}), affected_miles=0.5),
    ]


def test_results_round_trip(tmp_path):
    path = tmp_path / "results.csv"
    write_results(sample_results(), path)
    assert read_results(path) == sample_results()


def test_read_results_errors(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("")
    with pytest.raises(InvalidInputError):
        read_results(path)

    path.write_text("line,id\n1,2\n")
    with pytest.raises(InvalidInputError, match="header"):
        read_results(path)

    path.write_text(
        "line_id,season,ignition_idx,burned_cells,burned_acres,affected_line_ids,affected_miles\n"
        "6,0,1,120,26.7,5;6,1.25\n"
        "6,0,2,oops,0.0,,0.0\n"
    )
    with pytest.raises(InvalidInputError, match="row 3"):
        read_results(path)

    # rows that season_tables could not place are refused, not dropped
    # (a negative season) or averaged in twice (a repeated scenario)
    first = RESULTS_HEADER + "\n6,0,1,120,26.7,5;6,1.25\n"
    path.write_text(first + "6,-1,1,999999,1e9,,1e9\n")
    with pytest.raises(InvalidInputError, match="row 3: negative season"):
        read_results(path)
    path.write_text(first + "6,1,1,40,8.9,6,0.5\n6,0,1,120,26.7,5;6,1.25\n")
    with pytest.raises(InvalidInputError, match="row 4: .* repeats row 2"):
        read_results(path)

    # a value the loss math cannot use is refused, naming its row
    for row, want in (
        ("6,1,1,40,nan,6,0.5", "row 3: burned_acres nan"),
        ("6,1,1,40,inf,6,0.5", "row 3: burned_acres inf"),
        ("6,1,1,40,-8.9,6,0.5", "row 3: burned_acres -8.9"),
        ("6,1,1,40,8.9,6,nan", "row 3: affected_miles nan"),
        ("6,1,1,40,8.9,6,-inf", "row 3: affected_miles -inf"),
        ("6,1,1,40,8.9,6,-0.5", "row 3: affected_miles -0.5"),
        ("6,1,1,-40,8.9,6,0.5", "row 3: negative burned_cells -40"),
    ):
        path.write_text(first + row + "\n")
        with pytest.raises(InvalidInputError, match=want):
            read_results(path)


# ------------------------------------------------------- aggregation layer


def test_season_tables():
    acres, miles = season_tables(sample_results())
    assert acres[6] == [pytest.approx((26.7 + 0.0) / 2), pytest.approx((8.9 + 9.1) / 2)]
    assert miles[6] == [0.625, 0.5]

    # a line missing one season's scenarios is rejected
    extra = ScenarioResult(line_id=7, ignition_index=1, season_index=0,
                           burned_cell_count=1, burned_acres=0.5,
                           affected_line_ids=frozenset(), affected_miles=0.0)
    with pytest.raises(InvalidInputError):
        season_tables(sample_results() + [extra])


def test_assess_results_matches_hand_aggregation():
    costs = CostParams(cbe=20_000.0, cbl=200_000.0)
    recs = assess_results(sample_results(), costs)
    assert len(recs) == 1 and recs[0].line_id == 6

    want_lbe = costs.cbe * ((26.7 + 0.0) / 2 + (8.9 + 9.1) / 2) / 2
    want_lbl = costs.cbl * ((1.25 + 0.0) / 2 + (0.5 + 0.5) / 2) / 2
    assert recs[0].lbe == pytest.approx(want_lbe, rel=1e-12)
    assert recs[0].lbl == pytest.approx(want_lbl, rel=1e-12)
    assert recs[0].wfl == pytest.approx(want_lbe + want_lbl, rel=1e-12)
    assert recs[0].metric == 1.0
