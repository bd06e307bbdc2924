"""Projection, polyline length, and segment-to-cell traversal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfire.errors import InvalidInputError, OutOfBoundsError
from gridfire.geo import (
    EARTH_RADIUS_M,
    METERS_PER_MILE,
    GeoPoint,
    GridIndex,
    PlanarPoint,
    RasterFrame,
    polyline_length_miles,
    project,
    traverse_cells,
    unproject,
)

ORIGIN = GeoPoint(37.8, -120.0)

# one degree of latitude on the spherical earth used by the projection
M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0


def test_project_origin_is_zero():
    pt = project(ORIGIN, ORIGIN)
    assert pt.x == 0.0 and pt.y == 0.0


def test_project_one_degree_north():
    pt = project(GeoPoint(38.8, -120.0), ORIGIN)
    assert pt.x == 0.0
    assert abs(pt.y - 111_194.9) < 0.1
    assert pt.y == pytest.approx(M_PER_DEG, rel=1e-12)


def test_project_one_degree_east():
    # x shrinks by cos(lat of origin)
    pt = project(GeoPoint(37.8, -119.0), ORIGIN)
    assert pt.y == 0.0
    assert pt.x == pytest.approx(M_PER_DEG * math.cos(math.radians(37.8)), rel=1e-12)
    assert abs(pt.x - 87_861.23) < 0.5


def test_project_refuses_far_points():
    with pytest.raises(InvalidInputError):
        project(GeoPoint(43.0, -120.0), ORIGIN)
    with pytest.raises(InvalidInputError):
        project(GeoPoint(37.8, -114.9), ORIGIN)


def test_geopoint_range_validation():
    with pytest.raises(InvalidInputError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(InvalidInputError):
        GeoPoint(0.0, -181.0)
    with pytest.raises(InvalidInputError):
        GeoPoint(float("nan"), 0.0)


def test_raster_frame_validation():
    """Shape, cell size and the extent they span must be positive and
    finite: a frame whose width would overflow to inf is refused before
    any coordinate array is built from it."""
    assert RasterFrame(1, 1, ORIGIN, 1e308).width_m == 1e308
    for nrows, ncols, cell in ((0, 4, 30.0), (4, -1, 30.0), (4, 4, 0.0), (4, 4, math.nan),
                               (4, 4, math.inf), (128, 1, 1e308), (1, 128, 1e308)):
        with pytest.raises(InvalidInputError):
            RasterFrame(nrows, ncols, ORIGIN, cell)


@given(
    dlat=st.floats(-4.9, 4.9),
    dlon=st.floats(-4.9, 4.9),
)
def test_project_round_trip(dlat, dlon):
    p = GeoPoint(37.8 + dlat, -120.0 + dlon)
    q = unproject(project(p, ORIGIN), ORIGIN)
    assert abs(q.lat - p.lat) < 1e-9
    assert abs(q.lon - p.lon) < 1e-9


def test_polyline_single_point_and_empty():
    assert polyline_length_miles([ORIGIN]) == 0.0
    with pytest.raises(InvalidInputError):
        polyline_length_miles([])


def test_polyline_one_degree_latitude():
    miles = polyline_length_miles([GeoPoint(37.3, -120.0), GeoPoint(38.3, -120.0)])
    assert abs(miles - 69.09) < 0.01
    assert miles == pytest.approx(M_PER_DEG / METERS_PER_MILE, rel=1e-12)


@given(
    pts=st.lists(
        st.tuples(st.floats(37.0, 38.5), st.floats(-120.8, -119.2)),
        min_size=2,
        max_size=6,
    )
)
def test_polyline_reversal_invariant(pts):
    line = [GeoPoint(lat, lon) for lat, lon in pts]
    fwd = polyline_length_miles(line)
    rev = polyline_length_miles(line[::-1])
    assert fwd == pytest.approx(rev, rel=1e-12, abs=1e-12)


@given(
    pts=st.lists(
        st.tuples(st.floats(37.0, 38.5), st.floats(-120.8, -119.2)),
        min_size=3,
        max_size=6,
    ),
    cut=st.integers(1, 4),
)
def test_polyline_additive_under_concatenation(pts, cut):
    line = [GeoPoint(lat, lon) for lat, lon in pts]
    cut = min(cut, len(line) - 2) + 1
    total = polyline_length_miles(line)
    assert total == pytest.approx(
        polyline_length_miles(line[:cut + 1]) + polyline_length_miles(line[cut:]),
        rel=1e-12,
        abs=1e-15,
    )


# -------------------------------------------------------------- traversal

# Independent checker for traverse_cells: sample the segment densely (100
# points per cell of length) plus every parameter where it crosses a grid
# line, and collect every cell whose closed square contains a sample point.
# Uses the same snap rule as the library (GRID_SNAP_REL = 1e-9 relative)
# since closed-square membership at exact touches is a shared convention,
# but none of the interval-walking logic.

SNAP = 1e-9


def _axis_cells(v, n):
    r = round(v)
    if abs(v - r) <= SNAP * max(1.0, abs(v)):
        k = int(r)
        return [c for c in (k - 1, k) if 0 <= c < n]
    k = math.floor(v)
    return [k] if 0 <= k < n else []


def segment_cells_oracle(ax, ay, bx, by, nrows, ncols):
    """Cells touched by the segment (a->b), endpoints in cell units."""
    length = math.hypot(bx - ax, by - ay)
    ts = set(np.linspace(0.0, 1.0, max(2, math.ceil(length * 100) + 1)).tolist())
    for a_, b_ in ((ax, bx), (ay, by)):
        if b_ != a_:
            lo, hi = sorted((a_, b_))
            for k in range(math.floor(lo), math.ceil(hi) + 1):
                t = (k - a_) / (b_ - a_)
                if 0.0 <= t <= 1.0:
                    ts.add(t)
    out = set()
    for t in ts:
        x = ax + (bx - ax) * t
        y = ay + (by - ay) * t
        for c in _axis_cells(x, ncols):
            for r in _axis_cells(y, nrows):
                out.add((r, c))
    return out


def _frame(nrows=10, ncols=10, cell=30.0):
    return RasterFrame(nrows=nrows, ncols=ncols, origin=ORIGIN, cell_size=cell)


def _traverse_units(ax, ay, bx, by, frame):
    cs = frame.cell_size
    got = traverse_cells(PlanarPoint(ax * cs, ay * cs), PlanarPoint(bx * cs, by * cs), frame)
    return [(g.row, g.col) for g in got]


def test_traverse_within_one_cell():
    assert _traverse_units(2.2, 3.4, 2.8, 3.9, _frame()) == [(3, 2)]


def test_traverse_horizontal_three_columns():
    got = _traverse_units(1.5, 4.5, 3.5, 4.5, _frame())
    assert got == [(4, 1), (4, 2), (4, 3)]


def test_traverse_exact_diagonal_claims_corner_cells():
    # through the lattice corner (3, 3): all four cells around the corner
    got = set(_traverse_units(2.5, 2.5, 3.5, 3.5, _frame()))
    assert got == {(2, 2), (2, 3), (3, 2), (3, 3)}


def test_traverse_zero_length_on_corner():
    got = set(_traverse_units(4.0, 4.0, 4.0, 4.0, _frame()))
    assert got == {(3, 3), (3, 4), (4, 3), (4, 4)}


def test_traverse_order_follows_segment():
    cells = _traverse_units(0.5, 0.5, 4.5, 1.2, _frame())
    assert cells[0] == (0, 0)
    assert cells[-1] == (1, 4)
    cols = [c for _, c in cells]
    assert cols == sorted(cols)


def test_traverse_endpoint_outside_raises():
    f = _frame()
    with pytest.raises(OutOfBoundsError):
        traverse_cells(PlanarPoint(-1.0, 5.0), PlanarPoint(50.0, 50.0), f)
    with pytest.raises(OutOfBoundsError):
        traverse_cells(PlanarPoint(5.0, 5.0), PlanarPoint(5.0, f.height_m + 0.1), f)


def test_cell_of_far_edges_belong_to_last_cells():
    f = _frame(nrows=4, ncols=6, cell=10.0)
    assert f.cell_of(PlanarPoint(60.0, 40.0)) == GridIndex(3, 5)
    assert f.cell_of(PlanarPoint(0.0, 0.0)) == GridIndex(0, 0)


coords = st.floats(0.0, 10.0)
half_cells = st.integers(0, 20).map(lambda k: k / 2.0)


@settings(max_examples=150, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords)
def test_traverse_matches_oracle_random(ax, ay, bx, by):
    f = _frame()
    got = set(_traverse_units(ax, ay, bx, by, f))
    assert got == segment_cells_oracle(ax, ay, bx, by, f.nrows, f.ncols)


@settings(max_examples=150, deadline=None)
@given(ax=half_cells, ay=half_cells, bx=half_cells, by=half_cells)
def test_traverse_matches_oracle_on_lattice(ax, ay, bx, by):
    # half-cell endpoints exercise exact edge and corner touches
    f = _frame()
    got = set(_traverse_units(ax, ay, bx, by, f))
    assert got == segment_cells_oracle(ax, ay, bx, by, f.nrows, f.ncols)


@settings(max_examples=100, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords)
def test_traverse_connected_under_queen_adjacency(ax, ay, bx, by):
    cells = _traverse_units(ax, ay, bx, by, _frame())
    for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
        assert max(abs(r0 - r1), abs(c0 - c1)) <= 2  # ordered walk stays local
    # and the set as a whole forms one queen-connected component
    todo = {cells[0]}
    seen = set()
    rest = set(cells)
    while todo:
        cur = todo.pop()
        seen.add(cur)
        for r, c in rest - seen:
            if abs(r - cur[0]) <= 1 and abs(c - cur[1]) <= 1:
                todo.add((r, c))
    assert seen == rest
