"""Transmission network: buses, branches, routes, and line corridors.

Branches come in two kinds. Lines carry a geographic route (a polyline of
at least two points) and are the only branches that can ignite fires or be
damaged by them. Links are zero-geography branches (transformers and the
like) with no route and no spatial footprint.

A line's corridor on a raster is the cells its route crosses
(`line_cells`), dilated by a Chebyshev buffer. `Corridors` holds every
line's corridor for one study and is the one corridor-hit test: a fire
affects a line when it burns any cell of the line's corridor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GridFireError, InvalidInputError, OutOfBoundsError
from .geo import GeoPoint, GridIndex, RasterFrame, polyline_length_miles, traverse_cells

ROUTE_ENDPOINT_TOL_DEG = 1e-6


@dataclass(frozen=True)
class Bus:
    id: int
    location: GeoPoint


@dataclass(frozen=True)
class Branch:
    """One network branch. Lines have a route; links have an empty one."""

    id: int
    kind: str
    from_bus: int
    to_bus: int
    route: tuple[GeoPoint, ...] = ()
    length_miles: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("line", "link"):
            raise InvalidInputError(f"branch {self.id}: unknown kind {self.kind!r}")

    @property
    def is_line(self) -> bool:
        return self.kind == "line"


@dataclass(frozen=True)
class GridNetwork:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        for kind, items in (("bus", self.buses), ("branch", self.branches)):
            seen = set()
            for item in items:
                if item.id in seen:
                    raise InvalidInputError(f"duplicate {kind} id {item.id}")
                seen.add(item.id)
        by_id = {b.id: b for b in self.buses}
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in by_id:
                    raise InvalidInputError(f"branch {br.id} references missing bus {end}")
            if br.is_line:
                if len(br.route) < 2:
                    raise InvalidInputError(f"line {br.id} has {len(br.route)} route points, needs 2+")
                if br.length_miles <= 0.0:
                    raise InvalidInputError(f"line {br.id} has non-positive length {br.length_miles}")
                for bus_id, pt in ((br.from_bus, br.route[0]), (br.to_bus, br.route[-1])):
                    loc = by_id[bus_id].location
                    if (abs(loc.lat - pt.lat) > ROUTE_ENDPOINT_TOL_DEG
                            or abs(loc.lon - pt.lon) > ROUTE_ENDPOINT_TOL_DEG):
                        raise InvalidInputError(
                            f"line {br.id} route endpoint ({pt.lat}, {pt.lon}) does not "
                            f"coincide with bus {bus_id} at ({loc.lat}, {loc.lon})"
                        )
            else:
                if br.route:
                    raise InvalidInputError(f"link {br.id} must not carry a route")

    def branch(self, branch_id: int) -> Branch:
        for b in self.branches:
            if b.id == branch_id:
                return b
        raise InvalidInputError(f"no branch {branch_id}")


def ignitable_lines(n: GridNetwork) -> list[Branch]:
    """All line-kind branches in ascending id order."""
    return sorted((b for b in n.branches if b.is_line), key=lambda b: b.id)


def line_cells(b: Branch, frame: RasterFrame) -> list[GridIndex]:
    """Raster cells crossed by a line's route, each once, sorted by (row,
    col). A route point outside the raster, or too far from its origin to
    project, raises OutOfBoundsError naming the line."""
    if not b.is_line:
        raise InvalidInputError(f"branch {b.id} is a {b.kind}, not a line")
    cells: set[GridIndex] = set()
    try:
        planar = [frame.to_planar(p) for p in b.route]
        for p, q in zip(planar, planar[1:]):
            cells.update(traverse_cells(p, q, frame))
    except OutOfBoundsError as exc:
        raise OutOfBoundsError(f"line {b.id}: {exc}") from None
    return sorted(cells)


def _dilate(mask: np.ndarray, buf: int) -> np.ndarray:
    """The rows within `buf` of a True row of `mask`, per column, cells
    past its edges False: the window sums of its prefix sums along axis 0.
    Applied along both axes, as `_dilate(_dilate(m, b).T, b).T`, it is the
    Chebyshev dilation scipy.ndimage.maximum_filter(m, 2 * b + 1,
    mode="constant") gives."""
    n = mask.shape[0]
    run = np.zeros((n + 1, *mask.shape[1:]), dtype=np.int32)
    np.cumsum(mask, axis=0, out=run[1:])
    i = np.arange(n)
    return run[np.minimum(i + buf + 1, n)] > run[np.maximum(i - buf, 0)]


class Corridors:
    """Every line's corridor on one raster, built once per study: the flat
    indices (row * ncols + col) of the cells within `buffer_cells`
    (Chebyshev) of its `line_cells`, clipped to the grid, concatenated in
    `cells` (int32), the i-th line's (of `ids`) from `starts[i]` on. Every
    corridor holds at least one cell, the line's own."""

    def __init__(self, lines: Sequence[Branch], frame: RasterFrame, buffer_cells: int = 0) -> None:
        if buffer_cells < 0:
            raise InvalidInputError(f"buffer_cells must be >= 0, got {buffer_cells}")
        self.ids = np.array([b.id for b in lines], dtype=np.int64)
        self.miles = {b.id: b.length_miles for b in lines}
        # A wider buffer holds no more of the grid.
        buf = min(buffer_cells, max(frame.nrows, frame.ncols))
        parts = []
        for b in lines:
            rows, cols = np.array([(c.row, c.col) for c in line_cells(b, frame)]).T
            # The corridor lies in the line's bounding box grown by the
            # buffer and clipped to the grid, so only that box is dilated.
            r0, c0 = max(rows.min() - buf, 0), max(cols.min() - buf, 0)
            box = np.zeros((min(rows.max() + buf + 1, frame.nrows) - r0,
                            min(cols.max() + buf + 1, frame.ncols) - c0), dtype=bool)
            box[rows - r0, cols - c0] = True
            r, c = np.nonzero(_dilate(_dilate(box, buf).T, buf).T)
            parts.append(((r + r0) * frame.ncols + (c + c0)).astype(np.int32))
        self.cells = np.concatenate(parts or [np.empty(0, np.int32)])
        self.starts = np.cumsum([0] + [p.size for p in parts], dtype=np.intp)[:-1]

    def affected(self, burned: np.ndarray) -> tuple[frozenset[int], float]:
        """Ids of the lines whose corridor holds a burned cell of the
        boolean raster `burned`, and the sum of their lengths in miles."""
        hit = np.logical_or.reduceat(burned.ravel()[self.cells], self.starts)
        ids = frozenset(self.ids[hit].tolist())
        return ids, sum(self.miles[j] for j in ids)


def load_network(path: str | Path) -> GridNetwork:
    """Read the network JSON (buses, branches with routes) and validate it.
    Every error names the file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read network file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        buses = tuple(
            Bus(id=_whole(b["id"]), location=GeoPoint(float(b["lat"]), float(b["lon"])))
            for b in raw["buses"]
        )
        branches = []
        for br in raw["branches"]:
            route = tuple(
                GeoPoint(float(lat), float(lon)) for lat, lon in br.get("route", [])
            )
            branches.append(
                Branch(
                    id=_whole(br["id"]),
                    kind=str(br["kind"]),
                    from_bus=_whole(br["from"]),
                    to_bus=_whole(br["to"]),
                    route=route,
                    length_miles=polyline_length_miles(route) if route else 0.0,
                )
            )
        return GridNetwork(buses=buses, branches=tuple(branches))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: malformed network record: {exc!r}") from exc
    except GridFireError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _whole(v) -> int:
    """A JSON id: refuses a boolean, and a number that is not whole rather
    than truncate it."""
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise ValueError(f"id {v!r} is not a whole number")
    return int(v)


def write_network(n: GridNetwork, path: str | Path) -> None:
    doc = {
        "buses": [{"id": b.id, "lat": b.location.lat, "lon": b.location.lon} for b in n.buses],
        "branches": [],
    }
    for br in n.branches:
        rec: dict = {"id": br.id, "kind": br.kind, "from": br.from_bus, "to": br.to_bus}
        if br.is_line:
            rec["route"] = [[p.lat, p.lon] for p in br.route]
        doc["branches"].append(rec)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
