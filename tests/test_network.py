"""Network topology, routes, lengths, corridor rasterization, and the
corridor-hit test."""

import numpy as np
import pytest

from gridfire.errors import InvalidInputError, OutOfBoundsError
from gridfire.fixtures import IEEE30_TOTAL_LINE_MILES, STUDY_ORIGIN, ieee30_network
from gridfire.geo import GeoPoint, PlanarPoint, RasterFrame, polyline_length_miles, unproject
from gridfire.network import (
    Branch,
    Bus,
    Corridors,
    GridNetwork,
    _dilate,
    ignitable_lines,
    line_cells,
    load_network,
    write_network,
)

LINK_IDS = {11, 12, 13, 14, 15, 16, 36}


def tiny_network(length_deg=0.01):
    a = Bus(1, GeoPoint(37.80, -120.00))
    b = Bus(2, GeoPoint(37.80, -120.00 + length_deg))
    route = (a.location, b.location)
    from gridfire.geo import polyline_length_miles
    line = Branch(id=1, kind="line", from_bus=1, to_bus=2, route=route,
                  length_miles=polyline_length_miles(route))
    return GridNetwork(buses=(a, b), branches=(line,))


def test_fixture_counts():
    net = ieee30_network()
    assert len(net.buses) == 30
    assert len(net.branches) == 41
    lines = ignitable_lines(net)
    assert len(lines) == 34
    assert sum(1 for b in net.branches if not b.is_line) == 7


def test_fixture_link_ids():
    net = ieee30_network()
    line_ids = {b.id for b in ignitable_lines(net)}
    assert line_ids == set(range(1, 42)) - LINK_IDS
    assert [b.id for b in ignitable_lines(net)] == sorted(line_ids)


def test_fixture_total_line_miles():
    net = ieee30_network()
    total = sum(b.length_miles for b in ignitable_lines(net))
    assert abs(total - IEEE30_TOTAL_LINE_MILES) < 0.01


@pytest.mark.parametrize("width_m, height_m", [(500.0, 3840.0), (3840.0, 500.0), (240.0, 240.0)])
def test_fixture_needs_room_inside_its_margins(width_m, height_m):
    """An extent no wider or taller than two margins would mirror or
    squash the layout, so it is refused."""
    with pytest.raises(InvalidInputError, match="margins"):
        ieee30_network(width_m=width_m, height_m=height_m, margin_m=250.0)
    assert len(ieee30_network(width_m=510.0, height_m=510.0, margin_m=250.0).buses) == 30


def test_links_have_no_geography():
    net = ieee30_network()
    for b in net.branches:
        if not b.is_line:
            assert b.route == ()
            assert b.length_miles == 0.0


def test_dangling_bus_reference():
    a = Bus(1, GeoPoint(37.8, -120.0))
    with pytest.raises(InvalidInputError) as err:
        GridNetwork(buses=(a,), branches=(
            Branch(id=7, kind="link", from_bus=1, to_bus=99),
        ))
    assert "7" in str(err.value) and "99" in str(err.value)


def test_duplicate_branch_id():
    a = Bus(1, GeoPoint(37.8, -120.0))
    b = Bus(2, GeoPoint(37.81, -120.0))
    link = Branch(id=1, kind="link", from_bus=1, to_bus=2)
    with pytest.raises(InvalidInputError):
        GridNetwork(buses=(a, b), branches=(link, link))


def test_line_needs_route():
    a = Bus(1, GeoPoint(37.80, -120.00))
    b = Bus(2, GeoPoint(37.81, -120.00))
    with pytest.raises(InvalidInputError):
        GridNetwork(buses=(a, b), branches=(
            Branch(id=1, kind="line", from_bus=1, to_bus=2, route=(), length_miles=1.0),
        ))
    with pytest.raises(InvalidInputError):
        GridNetwork(buses=(a, b), branches=(
            Branch(id=1, kind="link", from_bus=1, to_bus=2,
                   route=(a.location, b.location)),
        ))


def test_route_endpoints_must_touch_buses():
    a = Bus(1, GeoPoint(37.80, -120.00))
    b = Bus(2, GeoPoint(37.81, -120.00))
    from gridfire.geo import polyline_length_miles
    route = (GeoPoint(37.8005, -120.00), b.location)  # starts 50-ish m off bus 1
    line = Branch(id=1, kind="line", from_bus=1, to_bus=2, route=route,
                  length_miles=polyline_length_miles(route))
    with pytest.raises(InvalidInputError):
        GridNetwork(buses=(a, b), branches=(line,))


def test_network_round_trip(tmp_path):
    net = ieee30_network()
    path = tmp_path / "net.json"
    write_network(net, path)
    back = load_network(path)
    assert back.buses == net.buses
    assert len(back.branches) == len(net.branches)
    for x, y in zip(back.branches, net.branches):
        assert (x.id, x.kind, x.from_bus, x.to_bus, x.route) == (
            y.id, y.kind, y.from_bus, y.to_bus, y.route)
        assert x.length_miles == pytest.approx(y.length_miles, rel=1e-12)


def test_load_dangling_reference_from_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(
        '{"buses": [{"id": 1, "lat": 37.8, "lon": -120.0}],'
        ' "branches": [{"id": 3, "kind": "link", "from": 1, "to": 2}]}'
    )
    with pytest.raises(InvalidInputError) as err:
        load_network(path)
    assert "3" in str(err.value) and "2" in str(err.value)


@pytest.mark.parametrize("record, value", [
    ("bus", "1e400"), ("bus", "1.5"), ("branch", "1.7"), ("from", "1.7"), ("to", "NaN")])
def test_load_refuses_an_id_that_is_not_whole(tmp_path, record, value):
    """A bus or branch id, or a branch end, that is not a whole number is
    a malformed record: JSON reads 1e400 as inf, which has no int, and
    1.7 would otherwise be truncated to another id."""
    ids = {"bus": "1", "branch": "3", "from": "1", "to": "2", **{record: value}}
    path = tmp_path / "net.json"
    path.write_text(
        f'{{"buses": [{{"id": {ids["bus"]}, "lat": 37.8, "lon": -120.0}},'
        f' {{"id": 2, "lat": 37.8, "lon": -120.01}}],'
        f' "branches": [{{"id": {ids["branch"]}, "kind": "link",'
        f' "from": {ids["from"]}, "to": {ids["to"]}}}]}}'
    )
    with pytest.raises(InvalidInputError, match=f"{path}: malformed network record: .*not a whole"):
        load_network(path)


def test_load_accepts_a_whole_float_id(tmp_path):
    """1.0 is the id 1: only a fraction or a non-finite id is refused."""
    path = tmp_path / "net.json"
    path.write_text(
        '{"buses": [{"id": 1.0, "lat": 37.8, "lon": -120.0},'
        ' {"id": 2, "lat": 37.8, "lon": -120.01}],'
        ' "branches": [{"id": 3.0, "kind": "link", "from": 1, "to": 2.0}]}'
    )
    net = load_network(path)
    assert [b.id for b in net.buses] == [1, 2]
    assert (net.branches[0].id, net.branches[0].from_bus, net.branches[0].to_bus) == (3, 1, 2)


def test_ignitable_lines_on_link_only_network():
    a = Bus(1, GeoPoint(37.8, -120.0))
    b = Bus(2, GeoPoint(37.81, -120.0))
    net = GridNetwork(buses=(a, b), branches=(
        Branch(id=1, kind="link", from_bus=1, to_bus=2),
    ))
    assert ignitable_lines(net) == []


def test_line_cells_small_line():
    net = tiny_network(length_deg=0.0001)  # under 10 m, one or two cells
    frame = RasterFrame(nrows=64, ncols=64, origin=GeoPoint(37.795, -120.005),
                        cell_size=30.0)
    cells = line_cells(net.branch(1), frame)
    assert 1 <= len(cells) <= 2


def test_line_cells_connected_and_in_bounds():
    net = ieee30_network()
    frame = RasterFrame(nrows=128, ncols=128, origin=STUDY_ORIGIN, cell_size=30.0)
    for b in ignitable_lines(net):
        cells = line_cells(b, frame)
        assert cells
        got = {(c.row, c.col) for c in cells}
        assert len(got) == len(cells)  # de-duplicated
        for c in cells:
            assert 0 <= c.row < 128 and 0 <= c.col < 128
        # whole corridor is one queen-connected component
        todo = {(cells[0].row, cells[0].col)}
        seen = set()
        while todo:
            cur = todo.pop()
            seen.add(cur)
            todo |= {p for p in got - seen
                     if abs(p[0] - cur[0]) <= 1 and abs(p[1] - cur[1]) <= 1}
        assert seen == got, f"line {b.id} corridor disconnected"


def test_line_cells_route_exiting_raster():
    net = tiny_network(length_deg=0.01)
    frame = RasterFrame(nrows=4, ncols=4, origin=GeoPoint(37.799, -120.001),
                        cell_size=30.0)
    with pytest.raises(OutOfBoundsError):
        line_cells(net.branch(1), frame)


def test_v_shaped_route_equals_union_of_segments():
    from gridfire.geo import polyline_length_miles, traverse_cells
    frame = RasterFrame(nrows=32, ncols=32, origin=GeoPoint(37.8, -120.0),
                        cell_size=30.0)
    p0 = unproject(PlanarPoint(100.0, 100.0), frame.origin)
    p1 = unproject(PlanarPoint(500.0, 700.0), frame.origin)
    p2 = unproject(PlanarPoint(900.0, 140.0), frame.origin)
    buses = (Bus(1, p0), Bus(2, p2))
    route = (p0, p1, p2)
    net = GridNetwork(buses=buses, branches=(
        Branch(id=1, kind="line", from_bus=1, to_bus=2, route=route,
               length_miles=polyline_length_miles(route)),
    ))
    got = {(c.row, c.col) for c in line_cells(net.branch(1), frame)}
    want = set()
    for a, b in ((p0, p1), (p1, p2)):
        for c in traverse_cells(frame.to_planar(a), frame.to_planar(b), frame):
            want.add((c.row, c.col))
    assert got == want


# ------------------------------------------------------------- corridors


def test_corridor_buffer_semantics():
    a, b = Bus(1, GeoPoint(37.852, -120.099)), Bus(2, GeoPoint(37.855, -120.099))
    route = (a.location, b.location)
    line = Branch(id=4, kind="line", from_bus=1, to_bus=2, route=route,
                  length_miles=polyline_length_miles(route))
    frame = RasterFrame(nrows=32, ncols=32, origin=GeoPoint(37.85, -120.10), cell_size=30.0)
    corridor = {(c.row, c.col) for c in line_cells(line, frame)}

    def affected(cells, buffer_cells=0):
        burned = np.zeros((32, 32), dtype=bool)
        for r, c in cells:
            burned[r, c] = True
        return Corridors([line], frame, buffer_cells).affected(burned)

    assert affected([]) == (frozenset(), 0)

    one = next(iter(corridor))
    assert affected([one]) == ({4}, line.length_miles)

    # a burned cell at Chebyshev distance exactly 1 from the corridor
    r, c = one
    neighbor = None
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            cand = (r + dr, c + dc)
            if cand not in corridor and 0 <= cand[0] < 32 and 0 <= cand[1] < 32:
                neighbor = cand
    assert neighbor is not None
    assert affected([neighbor], buffer_cells=0)[0] == set()
    assert affected([neighbor], buffer_cells=1)[0] == {4}
    with pytest.raises(InvalidInputError, match="buffer_cells"):
        Corridors([line], frame, -1)


def corridor_studies():
    """The study network on its 128x128 raster, and a copy squeezed onto
    32x32 that runs two cells from the raster edge."""
    return [
        (ieee30_network(), RasterFrame(nrows=128, ncols=128, origin=STUDY_ORIGIN, cell_size=30.0)),
        (ieee30_network(width_m=960.0, height_m=960.0, margin_m=15.0),
         RasterFrame(nrows=32, ncols=32, origin=STUDY_ORIGIN, cell_size=30.0)),
    ]


def clipped_shift_corridor(line, frame, buffer_cells):
    """A line's corridor built as every shift of up to `buffer_cells` of
    each of its cells, clipped onto the grid: exact, because a clipped
    shift stays within its cell's buffer, but (2b + 1)**2 cells per line
    cell."""
    span = np.arange(-buffer_cells, buffer_cells + 1)
    rc = np.array([(c.row, c.col) for c in line_cells(line, frame)], dtype=np.int64)
    rows = np.clip(rc[:, 0, None, None] + span[:, None], 0, frame.nrows - 1)
    cols = np.clip(rc[:, 1, None, None] + span[None, :], 0, frame.ncols - 1)
    return np.unique(rows * frame.ncols + cols)


def test_corridors_equal_clipped_shifts():
    """The dilated corridors are the clipped-shift ones, cell for cell and
    in the same order, including buffers clipped at the raster edge and
    one wider than the 32x32 grid."""
    for net, frame in corridor_studies():
        lines = ignitable_lines(net)
        for buffer in (0, 1, 2, 3, 7, 40):
            table = Corridors(lines, frame, buffer)
            want = [clipped_shift_corridor(b, frame, buffer) for b in lines]
            np.testing.assert_array_equal(table.cells, np.concatenate(want))
            np.testing.assert_array_equal(table.starts, np.cumsum([0] + [w.size for w in want])[:-1])


def test_corridors_hold_4_bytes_per_corridor_cell():
    """The corridor table holds one int32 per corridor cell and one start
    offset per line, whatever the buffer."""
    net, frame = corridor_studies()[0]
    lines = ignitable_lines(net)
    for buffer in (0, 3, 40):
        table = Corridors(lines, frame, buffer)
        held = sum(a.nbytes for a in vars(table).values() if isinstance(a, np.ndarray))
        assert table.cells.dtype == np.int32 and table.cells.size > len(lines)
        assert held <= 4 * table.cells.size + 16 * len(lines), (buffer, held)


def test_dilation_equals_scipy_maximum_filter():
    """`_dilate` is scipy.ndimage's maximum filter with mode "constant",
    bit for bit: along axis 0 alone and along both axes, on random masks
    of 1-40 cells a side, at buffers 0, 3 and one wider than the grid."""
    from scipy.ndimage import maximum_filter, maximum_filter1d

    rng = np.random.default_rng(3)
    for _ in range(40):
        mask = rng.random(tuple(rng.integers(1, 41, size=2))) < rng.choice([0.0, 0.01, 0.05, 0.3])
        for buf in (0, 3, 41):
            size = 2 * buf + 1
            want = maximum_filter1d(mask, size, axis=0, mode="constant")
            np.testing.assert_array_equal(_dilate(mask, buf), want)
            want = maximum_filter(mask, size, mode="constant")
            np.testing.assert_array_equal(_dilate(_dilate(mask, buf).T, buf).T, want)


def test_corridor_buffer_wider_than_the_grid_is_the_grid():
    """A 10**6-cell buffer makes every corridor the whole grid, built in
    memory of the grid's size: the clipped shifts would need (2 * 10**6 +
    1)**2 cells per line cell."""
    net, frame = corridor_studies()[1]
    lines = ignitable_lines(net)
    table = Corridors(lines, frame, 10**6)
    grid = np.arange(frame.nrows * frame.ncols)
    np.testing.assert_array_equal(table.cells, np.tile(grid, len(lines)))
    np.testing.assert_array_equal(table.starts, np.arange(len(lines)) * grid.size)
    assert table.affected(np.eye(frame.nrows, dtype=bool))[0] == frozenset(b.id for b in lines)


def test_corridor_hits_equal_brute_force():
    """The corridor table's hits against Python sets: a line is hit when a
    burned cell lies within `buffer` (Chebyshev) of a cell its route
    crosses. The 32x32 network runs two cells from the raster edge, so its
    buffer-3 corridors are clipped there."""
    studies = corridor_studies()
    rng = np.random.default_rng(5)
    clipped = 0
    for net, frame in studies:
        lines = ignitable_lines(net)
        edge_gap = min(min(c.row, c.col, frame.nrows - 1 - c.row, frame.ncols - 1 - c.col)
                       for b in lines for c in line_cells(b, frame))
        shape = (frame.nrows, frame.ncols)
        masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
        masks += [rng.random(shape) < p for p in (0.0005, 0.002, 0.01, 0.1)]
        for buffer in range(4):
            table = Corridors(lines, frame, buffer)
            corridors = {
                b.id: {(c.row + dr, c.col + dc)
                       for c in line_cells(b, frame)
                       for dr in range(-buffer, buffer + 1)
                       for dc in range(-buffer, buffer + 1)
                       if 0 <= c.row + dr < frame.nrows and 0 <= c.col + dc < frame.ncols}
                for b in lines
            }
            clipped += edge_gap < buffer
            for burned in masks:
                cells = {(int(r), int(c)) for r, c in np.argwhere(burned)}
                want = {j for j, corridor in corridors.items() if corridor & cells}
                ids, miles = table.affected(burned)
                assert ids == want
                assert miles == pytest.approx(
                    sum(net.branch(j).length_miles for j in sorted(want)), rel=1e-12, abs=0.0)
    assert clipped
