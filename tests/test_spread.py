"""Fire spread engine: directional ROS model, travel-time propagation."""

import heapq
import math
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull

from gridfire import spread
from gridfire.errors import CoverageError, OutOfBoundsError
from gridfire.fixtures import study_landscape
from gridfire.geo import GeoPoint, GridIndex, RasterFrame
from gridfire.landscape import (FuelCatalog, FuelModel, LandscapeRaster, SynthSpec, default_catalog,
                                synth_landscape)
from gridfire.spread import (
    IgnitionSpec,
    SpreadEngine,
    SpreadParams,
    burned_area_acres,
    directional_ros,
    moisture_factor,
    simulate_spread,
    slope_factor,
    wind_factor,
)
from gridfire.weather import HOUR, WeatherSample, WeatherSeries

ORIGIN = GeoPoint(37.85, -120.10)
T0 = datetime(2022, 7, 1, 12, 0, tzinfo=timezone.utc)

GRASS = default_catalog().lookup(1)


def const_wx(hours=30, ws=0.0, wdir=0.0, rh=30.0, start=T0):
    return WeatherSeries(tuple(
        WeatherSample(start + h * HOUR, ws, wdir, 20.0, rh) for h in range(hours)
    ))


def flat_land(n=33, fuel=1, cell=30.0, seed=0):
    return synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=cell, origin=ORIGIN, seed=seed,
        slope_deg=0.0, aspect_deg=0.0, fuel_id=fuel,
    ))


def custom_land(fuel, cell=30.0, slope=None, aspect=None):
    fuel = np.asarray(fuel, dtype=np.int64)
    nrows, ncols = fuel.shape
    frame = RasterFrame(nrows=nrows, ncols=ncols, origin=ORIGIN, cell_size=cell)
    z = np.zeros((nrows, ncols))
    return LandscapeRaster(
        frame=frame,
        slope=z.copy() if slope is None else np.asarray(slope, dtype=float),
        aspect=z.copy() if aspect is None else np.asarray(aspect, dtype=float),
        fuel=fuel,
        catalog=default_catalog(),
    )


# ----------------------------------------------------------------- ROS model


def test_ros_all_factors_unity():
    w = WeatherSample(T0, 0.0, 0.0, 20.0, 30.0)
    for theta in (0.0, 45.0, 137.0, 270.0):
        assert directional_ros(GRASS, 0.0, 0.0, w, theta) == GRASS.base_ros


def test_ros_grass_head_and_back():
    # wind 5 m/s, flat, RH at reference: head = 15*(1+0.4*5) = 45 m/min
    w = WeatherSample(T0, 5.0, 180.0, 20.0, 30.0)  # from south, blowing north
    head = directional_ros(GRASS, 0.0, 0.0, w, 0.0)  # travel north
    back = directional_ros(GRASS, 0.0, 0.0, w, 180.0)
    assert head == pytest.approx(45.0, rel=1e-12)
    ecc = math.sqrt(1.0 - 1.0 / 9.0)
    assert ecc == pytest.approx(0.9428090415820634, rel=1e-12)
    assert back == pytest.approx(45.0 * (1 - ecc) / (1 + ecc), rel=1e-12)
    assert back == pytest.approx(1.3246763185286738, rel=1e-9)
    assert abs(back - 1.325) < 1e-3


def test_ros_maximal_toward_wind():
    w = WeatherSample(T0, 4.0, 200.0, 20.0, 30.0)
    wind_to = (200.0 + 180.0) % 360.0
    at_head = directional_ros(GRASS, 0.0, 0.0, w, wind_to)
    for theta in np.linspace(0.0, 359.0, 60):
        assert directional_ros(GRASS, 0.0, 0.0, w, float(theta)) <= at_head + 1e-12


def test_ros_nonburnable_zero():
    rock = default_catalog().lookup(0)
    w = WeatherSample(T0, 5.0, 0.0, 20.0, 20.0)
    assert directional_ros(rock, 10.0, 90.0, w, 45.0) == 0.0


def test_slope_factor_geometry():
    # aspect 270 (downslope faces west) -> upslope toward east (90)
    up = slope_factor(30.0, 270.0, 90.0)
    assert up == pytest.approx(1.0 + 0.3 * math.tan(math.radians(30.0)), rel=1e-12)
    assert slope_factor(30.0, 270.0, 270.0) == 1.0  # downhill: no boost
    assert slope_factor(30.0, 270.0, 0.0) == pytest.approx(1.0, abs=1e-12)  # across
    assert slope_factor(0.0, 0.0, 123.0) == 1.0


@given(slope=st.floats(0.0, 90.0, exclude_max=True),
       aspect=st.floats(0.0, 360.0, exclude_max=True),
       travel=st.floats(0.0, 360.0, exclude_max=True))
def test_slope_factor_is_at_least_one(slope, aspect, travel):
    """Slope never slows spread. The engine skips its min_ros floor pass
    on this bound (`SpreadEngine._floor_bites`)."""
    assert slope_factor(slope, aspect, travel) >= 1.0


def test_moisture_factor_clamps():
    assert moisture_factor(30.0, 1.0) == 1.0
    assert moisture_factor(1.0, 2.0) == 3.0  # (30/1)^2 clamped to 3
    assert moisture_factor(100.0, 3.0) == pytest.approx(0.1)  # clamped floor
    assert moisture_factor(0.0, 1.0) == 3.0  # rh guarded below 1


def test_wind_factor_eccentricity_cap():
    # strong wind pushes ecc past the cap
    params = SpreadParams()
    h = 1.0 + GRASS.wind_coeff * 20.0 ** GRASS.wind_exp
    raw_ecc = math.sqrt(1.0 - 1.0 / h**2)
    assert raw_ecc > 0.95
    w = WeatherSample(T0, 20.0, 180.0, 20.0, 30.0)
    head = directional_ros(GRASS, 0.0, 0.0, w, 0.0)
    back = directional_ros(GRASS, 0.0, 0.0, w, 180.0)
    assert head / back == pytest.approx((1 + 0.95) / (1 - 0.95), rel=1e-9)


# ------------------------------------------------------------- propagation


def ignite(cell, duration, line_id=1):
    return IgnitionSpec(line_id=line_id, ignition_index=1, cell=cell,
                        start=T0, duration_hours=duration)


def test_tiny_duration_burns_only_ignition_cell():
    land = flat_land(9)
    b = simulate_spread(ignite(GridIndex(4, 4), 1e-4), land, const_wx())
    assert b.arrival[4, 4] == 0.0
    assert b.status.sum() == 1
    assert b.warning is None


def test_circular_growth_zero_wind():
    land = flat_land(96)
    minutes = 60.0
    b = simulate_spread(ignite(GridIndex(48, 48), minutes / 60.0), land, const_wx())
    burned_m2 = b.status.sum() * 30.0 * 30.0
    expected = math.pi * (15.0 * minutes) ** 2
    assert abs(burned_m2 - expected) / expected < 0.12


def test_zero_fuel_barrier_blocks_fire():
    fuel = np.ones((5, 5), dtype=int)
    fuel[2, :] = 0  # full non-burnable middle row
    land = custom_land(fuel)
    b = simulate_spread(ignite(GridIndex(0, 2), 48.0), land, const_wx(hours=50))
    burned_rows = sorted(set(np.nonzero(b.status)[0].tolist()))
    assert burned_rows == [0, 1]
    assert not b.status[land.fuel == 0].any()


def test_nonburnable_cells_never_burn():
    land = synth_landscape(SynthSpec(
        nrows=48, ncols=48, cell_size=30.0, origin=ORIGIN, seed=3,
        slope_deg=5.0, aspect_deg=90.0,
        fuel_mix=((1, 0.5), (2, 0.2), (3, 0.1), (0, 0.2)), patch_cells=4.0,
    ))
    r, c = np.argwhere(land.fuel == 1)[0]
    b = simulate_spread(ignite(GridIndex(int(r), int(c)), 8.0), land,
                        const_wx(ws=3.0, wdir=225.0, rh=25.0))
    assert not b.status[land.fuel == 0].any()


def test_rotational_symmetry_zero_wind():
    land = flat_land(41)
    b = simulate_spread(ignite(GridIndex(20, 20), 0.5), land, const_wx())
    s = b.status
    for k in (1, 2, 3):
        np.testing.assert_array_equal(s, np.rot90(s, k))


def test_wind_bias_head_to_back_ratio():
    # wind from the south at 1 m/s: H = 1.4, ratio (1+e)/(1-e) ~ 5.66
    land = flat_land(112)
    b = simulate_spread(ignite(GridIndex(56, 56), 1.0), land,
                        const_wx(ws=1.0, wdir=180.0))
    rows = np.nonzero(b.status.any(axis=1))[0]
    up = rows.max() - 56
    down = 56 - rows.min()
    assert up >= down
    h = 1.0 + 0.4 * 1.0
    ecc = math.sqrt(1.0 - 1.0 / h**2)
    theory = (1.0 + ecc) / (1.0 - ecc)
    assert abs(up / down - theory) / theory < 0.15


def test_duration_monotone_pair():
    land = synth_landscape(SynthSpec(
        nrows=40, ncols=40, cell_size=30.0, origin=ORIGIN, seed=11,
        fuel_mix=((1, 0.6), (3, 0.3), (0, 0.1)), patch_cells=5.0,
        slope_deg=8.0, aspect_deg=180.0,
    ))
    r, c = np.argwhere(land.fuel == 1)[0]
    short = simulate_spread(ignite(GridIndex(int(r), int(c)), 0.7), land,
                            const_wx(ws=2.0, wdir=90.0, rh=40.0))
    long = simulate_spread(ignite(GridIndex(int(r), int(c)), 3.0), land,
                           const_wx(ws=2.0, wdir=90.0, rh=40.0))
    assert np.all(long.status[short.status])
    assert long.status.sum() > short.status.sum()


def test_nonburnable_ignition_warns_and_burns_nothing():
    fuel = np.ones((6, 6), dtype=int)
    fuel[3, 3] = 0
    land = custom_land(fuel)
    b = simulate_spread(ignite(GridIndex(3, 3), 2.0, line_id=17), land, const_wx())
    assert b.status.sum() == 0
    assert np.all(np.isinf(b.arrival))
    assert "non-burnable" in b.warning and "17" in b.warning


def test_out_of_bounds_ignition():
    land = flat_land(8)
    with pytest.raises(OutOfBoundsError):
        simulate_spread(ignite(GridIndex(8, 0), 1.0), land, const_wx())


def test_weather_coverage_checked_up_front():
    land = flat_land(8)
    with pytest.raises(CoverageError):
        simulate_spread(ignite(GridIndex(4, 4), 6.0), land, const_wx(hours=3))


def test_coverage_of_a_fire_past_year_9999_is_a_coverage_error():
    """A fire whose last hour would start after year 9999 outlasts a series
    that ends in it: the check compares offsets, not instants."""
    wx = const_wx(hours=2207, start=datetime(9999, 10, 1, tzinfo=timezone.utc))
    start = datetime(9999, 10, 1, 12, tzinfo=timezone.utc)
    with pytest.raises(CoverageError, match="a 2207 h fire from 9999-10-01T12:00:00"):
        spread.check_coverage(wx, start, 2207)
    spread.check_coverage(wx, start, 2195)
    with pytest.raises(CoverageError, match="outlasts the 2207 h weather series"):
        spread.check_coverage(wx, start, 2195.5)


def test_run_group_raises_before_yielding():
    """A spec that cannot run stops its group before anything is yielded,
    wherever it sits in the group; the first such spec names the error.
    A non-burnable ignition, whose empty raster needs no search, comes
    first and is not yielded either."""
    fuel = np.ones((12, 12), dtype=int)
    fuel[0, 0] = 0
    land = custom_land(fuel)
    wx = const_wx(hours=4, ws=2.0, wdir=90.0)
    ok = [ignite(GridIndex(0, 0), 1.0), ignite(GridIndex(6, 6), 2.0),
          ignite(GridIndex(2, 9), 0.5)]
    outside, uncovered = ignite(GridIndex(20, 0), 1.0), ignite(GridIndex(3, 3), 6.0)
    eng = SpreadEngine(land)
    for specs, error in (([outside] + ok, OutOfBoundsError),
                         (ok + [outside], OutOfBoundsError),
                         (ok + [uncovered], CoverageError),
                         (ok + [uncovered, outside], CoverageError)):
        with pytest.raises(error):
            next(eng.run_group(specs, wx))
    got = dict(eng.run_group(ok, wx))
    for i, ig in enumerate(ok):
        np.testing.assert_array_equal(got[i].arrival, eng.run(ig, wx).arrival)


def test_determinism_same_inputs():
    land = synth_landscape(SynthSpec(
        nrows=32, ncols=32, cell_size=30.0, origin=ORIGIN, seed=5,
        fuel_mix=((1, 0.7), (0, 0.3)), patch_cells=3.0,
        slope_deg=0.0, aspect_deg=0.0,
    ))
    r, c = np.argwhere(land.fuel == 1)[0]
    ig = ignite(GridIndex(int(r), int(c)), 1.5)
    wx = const_wx(ws=4.0, wdir=300.0, rh=22.0)
    a = simulate_spread(ig, land, wx)
    b = simulate_spread(ig, land, wx)
    np.testing.assert_array_equal(a.arrival, b.arrival)
    np.testing.assert_array_equal(a.status, b.status)


def test_burn_raster_invariants():
    land = flat_land(25)
    dur = 0.4
    b = simulate_spread(ignite(GridIndex(12, 12), dur), land, const_wx())
    finite = np.isfinite(b.arrival)
    np.testing.assert_array_equal(b.status, b.arrival <= dur * 60.0)
    assert finite[b.status].all()
    assert b.arrival[12, 12] == 0.0


def test_burned_area_acres():
    land = flat_land(25)
    b = simulate_spread(ignite(GridIndex(12, 12), 1e-4), land, const_wx())
    alpha = 30.0 * 30.0 * 0.000247105381
    assert burned_area_acres(b, alpha) == pytest.approx(alpha)
    empty = simulate_spread(ignite(GridIndex(12, 12), 1e-4),
                            custom_land(np.zeros((25, 25), dtype=int)), const_wx())
    assert burned_area_acres(empty, alpha) == 0.0


# ----------------------------------------------------- edge cost consistency


def test_edge_costs_match_scalar_model():
    land = synth_landscape(SynthSpec(
        nrows=16, ncols=16, cell_size=30.0, origin=ORIGIN, seed=9,
        fuel_mix=((1, 0.4), (2, 0.3), (3, 0.2), (0, 0.1)), patch_cells=3.0,
        elevation_relief=60.0,
    ))
    w = WeatherSample(T0, 3.5, 240.0, 18.0, 45.0)
    params = SpreadParams()
    eng = SpreadEngine(land, params)
    src, dst, minutes = eng.edge_costs(w)
    cat = land.catalog
    rng = np.random.default_rng(0)
    ncols = land.frame.ncols
    for k in rng.choice(len(src), size=200, replace=False):
        rs, cs = divmod(int(src[k]), ncols)
        rd, cd = divmod(int(dst[k]), ncols)
        dr, dc = rd - rs, cd - cs
        theta = math.degrees(math.atan2(dc, dr)) % 360.0
        dist = math.hypot(dr, dc) * 30.0
        ros_s = directional_ros(cat.lookup(int(land.fuel[rs, cs])),
                                float(land.slope[rs, cs]), float(land.aspect[rs, cs]),
                                w, theta, params)
        ros_d = directional_ros(cat.lookup(int(land.fuel[rd, cd])),
                                float(land.slope[rd, cd]), float(land.aspect[rd, cd]),
                                w, theta, params)
        if ros_s <= 0.0 or ros_d <= 0.0:
            expect = math.inf
        else:
            expect = dist * 0.5 * (1.0 / ros_s + 1.0 / ros_d)
            if expect > dist / params.min_ros:
                expect = math.inf
        got = float(minutes[k])
        if math.isinf(expect):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expect, rel=1e-9), (rs, cs, rd, cd)


@pytest.mark.parametrize("n, min_ros", [(64, 5.0), (64, 0.01), (64, 0.0), (9, 5.0)])
def test_chunked_recost_equals_whole_edge_expression(n, min_ros):
    """`_minutes(table, out)` re-costs in chunks of RECOST_CHUNK edges, in
    place; each cost must equal, bit for bit, the whole-array expression
    hsrc * table[key_src] + hdst * table[key_dst], with edges slower than
    the floor (edge length / min_ros) made impassable. 64x64 spans several
    chunks and ends part-way through one; 9x9 of fuel 0 has no edges. The
    floor bites on some edges at 5 m/min; at the default 0.01 m/min it
    cannot, and its pass is skipped."""
    land = synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=30.0, origin=ORIGIN, seed=9,
        fuel_mix=((1, 0.4), (2, 0.3), (3, 0.2), (0, 0.1)), patch_cells=3.0,
        elevation_relief=60.0,
    )) if n == 64 else flat_land(n=n, fuel=0)
    eng = SpreadEngine(land, SpreadParams(min_ros=min_ros))
    m = eng._indices.size
    if n == 64:
        assert m > 2 * spread.RECOST_CHUNK and m % spread.RECOST_CHUNK
    else:
        assert m == 0
    src, dst, _ = eng.edge_costs(WeatherSample(T0, 0.0, 0.0, 20.0, 30.0))
    (rs, cs), (rd, cd) = np.divmod(src, land.ncols), np.divmod(dst, land.ncols)
    length = land.cell_size * np.array([math.hypot(r, c) for r, c in zip(rd - rs, cd - cs)])
    for w in (WeatherSample(T0, 7.5, 200.0, 30.0, 90.0), WeatherSample(T0, 1.0, 20.0, 20.0, 15.0)):
        table = eng._epoch_table(w)
        want = eng._hsrc * table[eng._key_src] + eng._hdst * table[eng._key_dst]
        if min_ros > 0:
            want[want > length / min_ros] = np.inf
        out = np.full(m, np.nan)
        assert eng._minutes(table, out) is out
        assert out.tobytes() == want.tobytes()
        if m and min_ros == 5.0:
            assert eng._floor_bites(table)
            assert 0 < np.isinf(out).sum() < m  # the floor bites on some edges only
        if m and min_ros == 0.01:
            assert not eng._floor_bites(table)
            assert np.isfinite(out).all()


def twenty_fuel_land():
    """40x40 cells of 30 m, each of rock or one of twenty random burnable
    fuels, on random slopes and aspects."""
    rng = np.random.default_rng(5)
    models = [FuelModel(0, "rock", False, 0.0, 0.0, 0.0, 0.0)]
    models += [FuelModel(f, f"fuel{f}", True, rng.uniform(0.5, 20.0), rng.uniform(0.05, 0.5),
                         rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)) for f in range(1, 21)]
    n = 40
    return LandscapeRaster(
        frame=RasterFrame(nrows=n, ncols=n, origin=ORIGIN, cell_size=30.0),
        slope=rng.uniform(0.0, 40.0, (n, n)), aspect=rng.uniform(0.0, 360.0, (n, n)),
        fuel=rng.integers(0, 21, (n, n)), catalog=FuelCatalog({m.id: m for m in models}))


def test_a_catalog_past_sixteen_fuels_gets_wide_keys():
    """Twenty burnable fuels make a (fuel, direction) table of 320 entries,
    too many for uint8 keys, so the keys are uint16. With and without a
    biting floor, each cost equals, bit for bit, the two-lookup expression
    over keys and half-costs taken from the landscape: the key of an
    endpoint is its fuel's rank among the burnable fuels present times 16
    plus the direction, its half-cost half the edge length over base_ros
    times the slope factor."""
    land = twenty_fuel_land()
    n, cell = land.nrows, land.cell_size
    models = [land.catalog.lookup(f) for f in range(21)]
    burnable = land.fuel > 0
    fuel_rank = np.searchsorted(np.unique(land.fuel[burnable]), land.fuel).ravel()
    base = np.where(burnable, [[models[f].base_ros for f in row] for row in land.fuel], 0.0)
    w = WeatherSample(T0, 6.0, 200.0, 30.0, 70.0)
    for min_ros in (0.0, 2.0):
        eng = SpreadEngine(land, SpreadParams(min_ros=min_ros))
        assert eng._key_src.dtype == eng._key_dst.dtype == np.uint16
        src, dst, minutes = eng.edge_costs(w)
        (rs, cs), (rd, cd) = np.divmod(src, n), np.divmod(dst, n)
        d = np.array([spread.OFFSETS.index(o) for o in zip((rd - rs).tolist(), (cd - cs).tolist())])
        assert d.size > 0
        hsrc, hdst, length = np.empty(d.size), np.empty(d.size), np.empty(d.size)
        for k, (dr, dc) in enumerate(spread.OFFSETS):
            on, dist = d == k, cell * math.hypot(dr, dc)
            phi = slope_factor(land.slope, land.aspect, math.degrees(math.atan2(dc, dr)) % 360.0)
            with np.errstate(divide="ignore"):
                half = (dist * 0.5 / (base * phi)).ravel()
            hsrc[on], hdst[on], length[on] = half[src[on]], half[dst[on]], dist
        key_src, key_dst = fuel_rank[src] * 16 + d, fuel_rank[dst] * 16 + d
        assert np.array_equal(eng._key_src, key_src) and np.array_equal(eng._key_dst, key_dst)
        table = eng._epoch_table(w)
        want = hsrc * table[key_src] + hdst * table[key_dst]
        if min_ros > 0:
            want[want > length / min_ros] = np.inf
            assert 0 < np.isinf(want).sum() < want.size
        assert minutes.tobytes() == want.tobytes()


def test_engine_holds_22_bytes_per_edge():
    """On the 128x128 study landscape the engine's arrays hold at most 22 B
    per edge (int32 end cell, two float64 half-costs and two uint8 keys)
    plus 11 B per cell (indptr, the burnable mask, the uint16 direction
    word and the int32 tail after the end cells) and 1 KiB for the tables
    per direction and per (fuel, direction)."""
    eng = SpreadEngine(study_landscape(seed=0))
    held = sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))
    m, n = eng._indices.size, 128 * 128
    assert m > 200_000
    assert held <= 22 * m + 11 * n + 1024, held - 22 * m - 11 * n


def test_engine_holds_26_bytes_per_edge():
    """On the 128x128 study landscape the engine's arrays hold at most 26 B
    per edge (int32 end cell and reverse position, two float64 half-costs
    and two uint8 keys) plus 8 B per cell (indptr and the burnable mask)."""
    eng = SpreadEngine(study_landscape(seed=0))
    held = sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))
    m, n = eng._indices.size, 128 * 128
    assert m > 200_000
    assert held <= 26 * m + 8 * n, held / m


def test_recost_holds_no_edge_length_temporaries():
    """Re-costing one hour in place on the 128x128 study landscape (about
    226k edges, 1.8 MB of costs) peaks below 1 MB of traced memory."""
    eng = SpreadEngine(study_landscape(seed=0))
    out = np.empty(eng._indices.size)
    table = eng._epoch_table(WeatherSample(T0, 3.5, 240.0, 18.0, 45.0))
    tracemalloc.start()
    try:
        eng._minutes(table, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size > 200_000 and np.isfinite(out).any()
    assert peak < 1 << 20, peak


# ------------------------------------------------------------ reachability


def mixed_land(seed=2, n=24):
    """About half the cells burn, in several separate components."""
    return synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=30.0, origin=ORIGIN, seed=seed,
        fuel_mix=((1, 0.3), (2, 0.15), (3, 0.1), (0, 0.45)), patch_cells=2.0,
        elevation_relief=40.0,
    ))


def test_static_graph_is_symmetric():
    """The reverse positions assume every edge runs both ways."""
    params = SpreadParams()
    eng = SpreadEngine(mixed_land(), params)
    src, dst, _ = eng.edge_costs(WeatherSample(T0, 0.0, 0.0, 20.0, 30.0))
    assert src.size > 0
    rev = eng._reverse(np.arange(src.size), dst)
    assert np.array_equal(rev[rev], np.arange(src.size))
    assert np.array_equal(dst[rev], src)
    assert np.array_equal(src[rev], dst)

    # nothing burnable: no edges at all, and a fire lit there burns nothing
    bare = SpreadEngine(flat_land(n=9, fuel=0), params)
    assert bare._indices.size == 0
    b = bare.run(ignite(GridIndex(4, 4), 2.0), const_wx())
    assert b.burned_cell_count() == 0
    assert "non-burnable" in b.warning


@pytest.mark.parametrize("land", [mixed_land, twenty_fuel_land])
def test_reverse_positions_equal_a_search_of_the_end_cells_row(land):
    """Each edge's reverse, as `SpreadEngine._search` finds it from the
    end cell's direction word, is the one edge of the end cell's CSR row
    that leads back to the source, found by looking through the row. The
    twenty-fuel landscape has uint16 keys."""
    eng = SpreadEngine(land())
    indptr, indices = eng._indptr.tolist(), eng._indices.tolist()
    src = np.repeat(np.arange(eng._n_cells), np.diff(eng._indptr)).tolist()
    assert len(src) > 1000
    want = [indptr[j] + indices[indptr[j]:indptr[j + 1]].index(i) for i, j in zip(src, indices)]
    assert eng._reverse(np.arange(len(src)), eng._indices).tolist() == want


def test_searches_read_the_engines_end_cells_in_place():
    """No group copies the engine's end cells: every search of a group,
    in the first epoch and later ones, gets a graph whose indices are a
    view of them."""
    land = mixed_land()
    eng = SpreadEngine(land)
    wx = WeatherSeries(tuple(WeatherSample(T0 + h * HOUR, 2.0 * h, 90.0 * h, 20.0, 30.0)
                             for h in range(4)))
    cells = np.argwhere(land.burnable_mask())[::40]
    specs = [ignite(GridIndex(*map(int, rc)), 3.0, line_id=i + 1) for i, rc in enumerate(cells)]
    searches, search = [], spread.dijkstra

    def wrapped(csgraph, *args, indices, **kwargs):
        searches.append((np.ndim(indices), np.shares_memory(csgraph.indices, eng._indices)))
        return search(csgraph, *args, indices=indices, **kwargs)

    with patch.object(spread, "dijkstra", wrapped):
        got = dict(eng.run_group(specs, wx))
    assert len(got) == len(specs) > 1
    # one first-epoch block of all the fires, then one search per fire
    assert searches[0] == (1, True) and len(searches) > 2
    assert set(searches[1:]) == {(0, True)}


def test_first_searches_start_at_the_ignitions():
    """Every search of a group gets the same graph: the n x n cell graph
    plus one super-source, node n. A first-epoch search starts from an
    array of ignition cells, a later one from the scalar n."""
    land = mixed_land()
    eng = SpreadEngine(land)
    n = eng._n_cells
    wx = WeatherSeries(tuple(WeatherSample(T0 + h * HOUR, 2.0 * h, 90.0 * h, 20.0, 30.0)
                             for h in range(4)))
    cells = np.argwhere(land.burnable_mask())[::40]
    specs = [ignite(GridIndex(*map(int, rc)), 3.0, line_id=i + 1) for i, rc in enumerate(cells)]
    searches, search = [], spread.dijkstra

    def wrapped(csgraph, *args, indices, **kwargs):
        searches.append((csgraph, indices))
        return search(csgraph, *args, indices=indices, **kwargs)

    with patch.object(spread, "dijkstra", wrapped):
        got = dict(eng.run_group(specs, wx))
    assert len(got) == len(specs) > 1
    graph = searches[0][0]
    assert graph.shape == (n + 1, n + 1)
    assert all(g is graph for g, _ in searches)
    first = [start for _, start in searches if np.ndim(start) == 1]
    later = [start for _, start in searches[len(first):]]
    assert len(first) == 1 and np.all(np.asarray(first[0]) < n)
    assert np.array_equal(first[0], [int(r) * land.ncols + int(c) for r, c in cells])
    assert later and all(np.ndim(start) == 0 and start == n for start in later)


def test_engine_construction_peak_is_near_what_it_holds():
    """Building the edge structure holds few temporaries at once: the
    constructor's traced peak is at most 1.5x what the engine keeps."""
    land = study_landscape(seed=0)
    tracemalloc.start()
    try:
        eng = SpreadEngine(land)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eng._indptr.size == 128 * 128 + 1
    assert peak <= 1.5 * held, (peak, held)


# ------------------------------------------------------------ oracle checks


def bellman_ford_arrival(land, w, start_cell, params):
    """Exhaustive relaxation over the engine's own edge list."""
    eng = SpreadEngine(land, params)
    src, dst, minutes = eng.edge_costs(w)
    keep = np.isfinite(minutes)
    edges = list(zip(src[keep].tolist(), dst[keep].tolist(), minutes[keep].tolist()))
    n = land.frame.nrows * land.frame.ncols
    dist = [math.inf] * n
    dist[start_cell.row * land.frame.ncols + start_cell.col] = 0.0
    for _ in range(n):
        changed = False
        for s, d, m in edges:
            nd = dist[s] + m
            if nd < dist[d]:
                dist[d] = nd
                changed = True
        if not changed:
            break
    return np.array(dist).reshape(land.frame.nrows, land.frame.ncols)


@pytest.mark.parametrize("seed,duration", [(0, 0.5), (1, 2.0), (2, 6.0), (3, 1.0)])
def test_arrival_equals_bellman_ford(seed, duration):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 21))
    land = synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=30.0, origin=ORIGIN, seed=seed,
        fuel_mix=((1, 0.45), (2, 0.25), (3, 0.15), (0, 0.15)),
        patch_cells=3.0,
        slope_deg=float(rng.uniform(0, 20)), aspect_deg=float(rng.uniform(0, 360)),
    ))
    w = WeatherSample(T0, float(rng.uniform(0, 6)), float(rng.uniform(0, 360)),
                      20.0, float(rng.uniform(15, 80)))
    wx = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, w.wind_speed, w.wind_dir_from, w.temperature,
                      w.rel_humidity) for h in range(int(duration) + 2)
    ))
    burnable = np.argwhere(land.fuel != 0)
    r, c = burnable[rng.integers(len(burnable))]
    cell = GridIndex(int(r), int(c))

    params = SpreadParams()
    oracle = bellman_ford_arrival(land, w, cell, params)
    got = simulate_spread(ignite(cell, duration), land, wx, params)

    horizon = duration * 60.0
    within = oracle <= horizon
    np.testing.assert_array_equal(got.status, within)
    assert np.all(got.arrival[within] == oracle[within])
    assert np.all(np.isinf(got.arrival[~within]))


@pytest.mark.parametrize("wind, wdir, hours", [
    (0.0, 0.0, 1.0), (3.7, 0.0, 1.0), (3.7, 10.0, 1.0), (5.0, 22.5, 0.75), (2.3, 45.0, 1.0),
])
def test_arrival_equals_the_stencil_gauge(wind, wdir, hours):
    """In flat uniform grass under constant wind, a lattice fire's arrival
    at x is the gauge of x: the least t with x in t times the convex hull
    of the stencil's speed vectors, one per move, along the move at the
    rate of spread in its compass direction. The hull, not the model's
    speed ellipse, is the shape the lattice burns."""
    n, cell = 161, 30.0
    w = WeatherSample(T0, wind, wdir, 20.0, 30.0)
    moves = np.array(spread.OFFSETS, dtype=float)
    ros = [directional_ros(GRASS, 0.0, 0.0, w, math.degrees(math.atan2(dc, dr)) % 360.0)
           for dr, dc in moves]  # rows run north, columns east
    speeds = moves / np.hypot(*moves.T)[:, None] * np.array(ros)[:, None]
    facets = ConvexHull(speeds).equations  # a . v + b <= 0 inside, b < 0
    r, c = np.indices((n, n)) - n // 2
    x = np.stack([r.ravel(), c.ravel()], axis=1) * cell
    gauge = (x @ facets[:, :2].T / -facets[:, 2]).max(axis=1).reshape(n, n)

    wx = const_wx(hours=2, ws=wind, wdir=wdir)
    got = simulate_spread(ignite(GridIndex(n // 2, n // 2), hours), flat_land(n=n), wx)
    horizon = 60.0 * hours
    assert not (got.status[[0, -1]].any() or got.status[:, [0, -1]].any())
    assert np.abs(got.arrival[got.status] - gauge[got.status]).max() <= 1e-9
    assert got.status[gauge <= horizon - 1e-6].all()
    assert not got.status[gauge > horizon + 1e-6].any()


def hourly_reference(eng, wx, ig):
    """Exact earliest arrival under hourly piecewise-constant weather,
    rebuilt from the engine's public edge list (one `edge_costs` per hour).

    A fire entering an edge at minute t crosses it at the speed of the hour
    it is in; when the hour ends part-way, the share already crossed is
    kept and the rest is crossed at the next hour's speed, and an hour in
    which the edge is impassable (+inf) makes no progress. Leaving later
    never arrives earlier (FIFO), so a plain label-setting search over
    these exit times is exact."""
    ncols = eng.land.frame.ncols
    horizon = ig.duration_hours * 60.0
    hours = math.ceil(ig.duration_hours)
    src, dst, _ = eng.edge_costs(wx.at(ig.start))
    costs = [eng.edge_costs(wx.at(ig.start + h * HOUR))[2].tolist() for h in range(hours)]
    out = {}
    for k, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
        out.setdefault(s, []).append((k, d))

    def leave(t, k):
        h, left = int(t // 60.0), 1.0
        while h < hours:
            c, end = costs[h][k], 60.0 * (h + 1)
            if c != math.inf:
                if t + left * c <= end:
                    return t + left * c
                left -= (end - t) / c
            t, h = end, h + 1
        return math.inf

    ig_idx = ig.cell.row * ncols + ig.cell.col
    dist = {ig_idx: 0.0}
    done = set()
    heap = [(0.0, ig_idx)]
    while heap:
        t, u = heapq.heappop(heap)
        if u in done or t > horizon:
            continue
        done.add(u)
        for k, v in out.get(u, ()):
            a = leave(t, k)
            if v not in done and a <= horizon and a < dist.get(v, math.inf):
                dist[v] = a
                heapq.heappush(heap, (a, v))
    arrival = np.full(eng.land.frame.nrows * ncols, np.inf)
    for v in done:
        arrival[v] = dist[v]
    return arrival.reshape(eng.land.frame.nrows, ncols)


@pytest.mark.parametrize("seed,n,min_ros,durations,block_rows", [
    pytest.param(0, 16, 0.01, (0.7, 2.5, 3.0, 3.0), None, id="0"),
    pytest.param(1, 16, 0.01, (0.7, 2.5, 3.0, 3.0), None, id="1"),
    pytest.param(2, 20, 6.0, (2.5, 4.0), None, id="impassable-hour"),
    pytest.param(3, 28, 0.01, (6.0, 7.5), None, id="long-fire"),
    pytest.param(10, 24, 0.01, (0.7, 2.5, 3.0, 2.0), 2, id="blocks-twins"),
])
def test_group_arrival_equals_hourly_reference(seed, n, min_ros, durations, block_rows,
                                                monkeypatch):
    """Scenarios run in one hour-lockstep group each get the exact
    time-dependent arrival under hourly-varying wind and humidity.

    With `block_rows`, the first hour is searched in blocks of that many
    fires, and the group also holds a twin of the second fire (same cell
    and duration, another line), a longer fire from the same cell, and a
    fire that burns its whole island in the first hour."""
    rng = np.random.default_rng(seed)
    fuel_mix = ((1, 0.5), (2, 0.25), (3, 0.15), (0, 0.1))
    if min_ros > 1.0:  # fuels slower than min_ros would never burn
        fuel_mix = ((1, 0.6), (2, 0.3), (0, 0.1))
    elif max(durations) > 4:  # slow fuels, so the fire outlives the grid
        fuel_mix = ((3, 0.6), (2, 0.3), (0, 0.1))
    elif block_rows:  # more barriers, which cut off small islands
        fuel_mix = ((1, 0.45), (2, 0.2), (3, 0.1), (0, 0.25))
    land = synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=30.0, origin=ORIGIN, seed=seed,
        fuel_mix=fuel_mix, patch_cells=3.0, elevation_relief=30.0,
    ))
    samples = [
        WeatherSample(T0 + h * HOUR, float(rng.uniform(0, 8)), float(rng.uniform(0, 360)),
                      20.0, float(rng.uniform(10, 90)))
        for h in range(8)
    ]
    params = SpreadParams(min_ros=min_ros)
    if min_ros > 1.0:
        # hour 1 is still and damp: every edge is impassable in it, and the
        # fire must resume in hour 2 from the edge progress of hour 0
        samples[0] = WeatherSample(T0, 2.0, 90.0, 20.0, 30.0)
        samples[1] = WeatherSample(T0 + HOUR, 0.0, 0.0, 20.0, 100.0)
    wx = WeatherSeries(tuple(samples))
    burnable = np.argwhere(land.burnable_mask())
    specs = [ignite(GridIndex(*map(int, burnable[rng.integers(len(burnable))])), hours)
             for hours in durations]
    eng = SpreadEngine(land, params)
    if min_ros > 1.0:
        assert np.isinf(eng.edge_costs(wx.at(T0 + HOUR))[2]).all()
    if block_rows:
        monkeypatch.setattr(spread, "FIRST_HOUR_BLOCK_BYTES", block_rows * 8 * n * n)
        src, dst, _ = eng.edge_costs(wx.at(T0))
        graph = csr_matrix((np.ones(src.size), (src, dst)), shape=(n * n, n * n))
        _, labels = connected_components(graph, directed=False)
        sizes = np.bincount(labels)[labels]
        reach = {int(sizes[r * n + c]): GridIndex(int(r), int(c)) for r, c in burnable}
        island = reach[min(k for k in reach if k > 1)]
        specs += [ignite(specs[1].cell, durations[1], line_id=2),
                  ignite(specs[1].cell, durations[1] + 1.0),
                  ignite(island, 3.0)]
        assert len({(ig.cell, ig.duration_hours) for ig in specs}) == 3 * block_rows
    got = dict(eng.run_group(specs, wx))
    for i, ig in enumerate(specs):
        want = hourly_reference(eng, wx, ig)
        np.testing.assert_array_equal(got[i].status, np.isfinite(want))
        np.testing.assert_allclose(got[i].arrival[got[i].status], want[np.isfinite(want)],
                                   rtol=0, atol=1e-9)
        if min_ros > 1.0:  # nothing arrives in the impassable hour, and the fire resumes
            assert not ((want > 60.0) & (want < 120.0)).any() and (want > 120.0).any()
        elif max(durations) > 4:
            assert (want > 300.0).any(), "the fire should still spread after hour 5"
        else:
            assert np.isfinite(want).sum() > 1
    if block_rows:
        assert got[len(durations)] is got[1]
        assert (got[len(durations) + 1].arrival > 60.0 * durations[1]).any()
        whole = got[len(specs) - 1].arrival
        assert np.isfinite(whole).sum() == sizes[island.row * n + island.col]
        assert whole[np.isfinite(whole)].max() <= 60.0, "the island should burn out in hour 0"


def test_fire_stops_in_the_hour_it_burns_out():
    """A 24 h fire on a small island stops in the hour it burns the
    island's last cell: its group re-costs no later hour, and its raster
    is the exact arrival. The humidity alternates between 30% and 31%, so
    every hour is an epoch of its own. A fire lit on an isolated burnable
    cell burns that cell alone, in hour 0, with no warning."""
    fuel = np.zeros((5, 20), dtype=int)
    fuel[2, 2:18] = 3  # a strip of slow timber litter
    fuel[0, 0] = 1
    eng = SpreadEngine(custom_land(fuel))
    # Fewer edges than cells: scipy's CSR constructor would copy a view of
    # the engine's end cells this short, so the group's graph spans them all
    # and every search reads them in place.
    assert eng._indices.size < eng._n_cells
    wx = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, 0.0, 0.0, 20.0, 30.0 + h % 2) for h in range(30)
    ))
    specs = [ignite(GridIndex(2, 2), 24.0), ignite(GridIndex(0, 0), 24.0)]
    recosts = []
    minutes = SpreadEngine._minutes

    def counted(self, w, out):
        recosts.append(w)
        return minutes(self, w, out)

    shared, search = [], spread.dijkstra

    def wrapped(csgraph, *args, **kwargs):
        shared.append(np.shares_memory(csgraph.indices, eng._ends))
        return search(csgraph, *args, **kwargs)

    with patch.object(SpreadEngine, "_minutes", counted), patch.object(spread, "dijkstra", wrapped):
        got = dict(eng.run_group(specs, wx))
    assert shared and all(shared)
    want = hourly_reference(eng, wx, specs[0])
    np.testing.assert_array_equal(got[0].status, np.isfinite(want))
    np.testing.assert_allclose(got[0].arrival[got[0].status], want[np.isfinite(want)],
                               rtol=0, atol=1e-9)
    assert got[0].burned_cell_count() == 16
    hours = math.ceil(want[np.isfinite(want)].max() / 60.0)
    assert 2 <= hours < 24
    assert len(recosts) == hours
    assert got[1].burned_cell_count() == 1 and got[1].arrival[0, 0] == 0.0
    assert got[1].warning is None


def test_hours_with_equal_weather_are_one_epoch():
    """Consecutive hours with bit-equal weather tables are one epoch: one
    re-cost and one search per fire. Under constant weather a group
    re-costs once, and every fire equals the static Bellman-Ford arrival
    bit for bit, whatever its duration. Under hours [A, A, B] the group
    re-costs twice, and each fire equals the hourly reference, across the
    A-A boundary inside the first epoch and the A-B boundary after it."""
    land = synth_landscape(SynthSpec(
        nrows=18, ncols=18, cell_size=30.0, origin=ORIGIN, seed=5,
        fuel_mix=((3, 0.6), (2, 0.3), (0, 0.1)), patch_cells=3.0, elevation_relief=30.0,
    ))
    a = WeatherSample(T0, 3.0, 200.0, 20.0, 35.0)
    b = WeatherSample(T0, 6.0, 80.0, 20.0, 20.0)
    burnable = np.argwhere(land.burnable_mask())
    cells = [GridIndex(*map(int, burnable[k])) for k in (0, len(burnable) // 2)]
    eng = SpreadEngine(land)
    recosts = []
    minutes = SpreadEngine._minutes

    def counted(self, table, out):
        recosts.append(table)
        return minutes(self, table, out)

    def run(weather, specs):
        recosts.clear()
        wx = WeatherSeries(tuple(
            WeatherSample(T0 + h * HOUR, w.wind_speed, w.wind_dir_from, w.temperature,
                          w.rel_humidity) for h, w in enumerate(weather)
        ))
        with patch.object(SpreadEngine, "_minutes", counted):
            return wx, dict(eng.run_group(specs, wx))

    specs = [ignite(cells[0], 2.5), ignite(cells[1], 6.0)]
    _, got = run([a] * 6, specs)
    assert len(recosts) == 1
    for i, ig in enumerate(specs):
        oracle = bellman_ford_arrival(land, a, ig.cell, SpreadParams())
        within = oracle <= ig.duration_hours * 60.0
        np.testing.assert_array_equal(got[i].status, within)
        assert got[i].arrival[within].tobytes() == oracle[within].tobytes()
        assert (oracle[within] > 60.0).any()

    specs = [ignite(cells[0], 3.0), ignite(cells[1], 2.5)]
    wx, got = run([a, a, b], specs)
    assert len(recosts) == 2
    for i, ig in enumerate(specs):
        want = hourly_reference(eng, wx, ig)
        np.testing.assert_array_equal(got[i].status, np.isfinite(want))
        np.testing.assert_allclose(got[i].arrival[got[i].status], want[np.isfinite(want)],
                                   rtol=0, atol=1e-9)
        assert (want > 120.0).any() and ((want > 60.0) & (want < 120.0)).any()


def test_first_hour_block_with_more_fires_than_cells():
    """Every cell of a 3x3 grid lit at three durations makes 27 fires,
    more than the grid has cells. FIRST_HOUR_BLOCK_BYTES lets hour 0
    search them in one block, and a first search starts from the
    ignitions themselves, so one search serves all 27. Each fire burns as
    it does alone."""
    land = flat_land(n=3)
    eng = SpreadEngine(land)
    wx = const_wx(hours=3, ws=3.0, wdir=45.0)
    specs = [ignite(GridIndex(r, c), hours, line_id=r * 3 + c + 1)
             for hours in (0.02, 0.05, 2.0) for r in range(3) for c in range(3)]
    assert spread.FIRST_HOUR_BLOCK_BYTES // (8 * 9) > len(specs)
    starts, search = [], spread.dijkstra

    def counted(csgraph, *args, indices, **kwargs):
        starts.append(np.ravel(indices).tolist())
        return search(csgraph, *args, indices=indices, **kwargs)

    with patch.object(spread, "dijkstra", counted):
        got = dict(eng.run_group(specs, wx))
    assert starts[0] == [ig.cell.row * 3 + ig.cell.col for ig in specs]
    assert sorted(got) == list(range(len(specs)))
    for i, ig in enumerate(specs):
        np.testing.assert_array_equal(got[i].arrival, eng.run(ig, wx).arrival)
    assert len({got[i].burned_cell_count() for i in range(len(specs))}) > 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(16, 20),
    block_rows=st.integers(1, 3),
    fires=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])),
                   min_size=1, max_size=6),
    wind=st.lists(st.floats(0.0, 8.0), min_size=3, max_size=3),
    wdir=st.lists(st.floats(0.0, 359.0), min_size=3, max_size=3),
    rh=st.lists(st.floats(10.0, 90.0), min_size=3, max_size=3),
)
def test_random_groups_equal_hourly_reference(seed, n, block_rows, fires, wind, wdir, rh):
    """Every position of a random group gets the exact time-dependent
    arrival, whatever the hour its fire stops in, the first-hour block it
    falls in, and the twins it shares a fire with: each fire's hour ends
    in the same step, from a first-hour row or from a later search."""
    land = synth_landscape(SynthSpec(
        nrows=n, ncols=n, cell_size=30.0, origin=ORIGIN, seed=seed,
        fuel_mix=((1, 0.45), (2, 0.2), (3, 0.1), (0, 0.25)), patch_cells=3.0,
        elevation_relief=30.0,
    ))
    wx = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, wind[h], wdir[h], 20.0, rh[h]) for h in range(3)
    ))
    burnable = np.argwhere(land.burnable_mask())
    pool = [GridIndex(*map(int, burnable[k]))
            for k in np.random.default_rng(seed).integers(len(burnable), size=4)]
    # The last spec is always a twin of the first, from another line.
    specs = [ignite(pool[k], hours, line_id=i + 1) for i, (k, hours) in enumerate(fires)]
    specs.append(ignite(specs[0].cell, specs[0].duration_hours, line_id=len(specs) + 1))
    eng = SpreadEngine(land)
    with patch.object(spread, "FIRST_HOUR_BLOCK_BYTES", block_rows * 8 * n * n):
        got = dict(eng.run_group(specs, wx))
    assert sorted(got) == list(range(len(specs)))
    for i, ig in enumerate(specs):
        want = hourly_reference(eng, wx, ig)
        np.testing.assert_array_equal(got[i].status, np.isfinite(want))
        np.testing.assert_allclose(got[i].arrival[got[i].status], want[np.isfinite(want)],
                                   rtol=0, atol=1e-9)
        for j in range(i):
            twins = (specs[j].cell, specs[j].duration_hours) == (ig.cell, ig.duration_hours)
            assert (got[j] is got[i]) == twins, (j, i)


def test_finished_fires_hold_no_memory():
    """A finished fire keeps no arrays: when the consumer drops each
    raster, a group of 200 one-hour fires at 128x128 peaks below two
    first-hour blocks of rows. (200 kept arrival arrays would be 26 MB.)"""
    land = study_landscape(seed=0)
    eng = SpreadEngine(land)
    wx = const_wx(hours=2, ws=4.0, wdir=225.0, rh=25.0)
    cells = np.flatnonzero(land.burnable_mask().ravel())
    specs = [ignite(GridIndex(*divmod(int(i), land.ncols)), 1.0)
             for i in cells[::len(cells) // 200][:200]]
    assert len(specs) == 200
    burned = 0
    tracemalloc.start()
    try:
        for _, b in eng.run_group(specs, wx):
            burned += b.burned_cell_count()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert burned > 200
    assert peak < 2 * spread.FIRST_HOUR_BLOCK_BYTES, peak


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    k=st.integers(1, 3),
    wind=st.lists(st.floats(0.0, 8.0), min_size=8, max_size=8),
    wdir=st.lists(st.floats(0.0, 359.0), min_size=8, max_size=8),
    rh=st.lists(st.floats(5.0, 95.0), min_size=8, max_size=8),
)
def test_arrival_is_causal(seed, k, wind, wdir, rh):
    """Weather after hour k cannot change arrivals at or before minute
    60 * k: two series that agree on hours < k give the same fire up to
    there."""
    land = synth_landscape(SynthSpec(
        nrows=14, ncols=14, cell_size=30.0, origin=ORIGIN, seed=seed,
        fuel_mix=((3, 0.5), (2, 0.3), (1, 0.1), (0, 0.1)), patch_cells=3.0,
        elevation_relief=30.0,
    ))
    first = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, wind[h], wdir[h], 20.0, rh[h]) for h in range(4)
    ))
    second = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, wind[h if h < k else h + 4], wdir[h if h < k else h + 4],
                      20.0, rh[h if h < k else h + 4])
        for h in range(4)
    ))
    burnable = np.argwhere(land.burnable_mask())
    cell = GridIndex(*map(int, burnable[seed % len(burnable)]))
    eng = SpreadEngine(land)
    a = eng.run(ignite(cell, 4.0), first).arrival
    b = eng.run(ignite(cell, 4.0), second).arrival
    early = (a <= 60.0 * k) | (b <= 60.0 * k)
    np.testing.assert_array_equal(a[early], b[early])
