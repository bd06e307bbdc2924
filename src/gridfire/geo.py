"""Geographic primitives: local projection, polyline length, cell traversal.

Coordinates live in two spaces. Geographic points are WGS-ish (lat, lon)
degrees. Planar points are meters east (x) and north (y) of a study origin
under an equirectangular projection with a spherical earth of radius
6,371,000 m. The projection is only used at study scale (a few km), where
its distortion is far below the 30 m cell size.

Grid convention: row 0 is the southernmost row, column 0 the westernmost
column, and the raster origin is the southwest corner of cell (0, 0).

Cells are treated as closed squares throughout. A segment that only touches
a cell edge or corner still claims that cell; geometric comparisons snap
values within 1e-9 cell widths of a grid line onto it so exact-corner
constructions behave identically across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInputError, OutOfBoundsError

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_MILE = 1609.344

# Relative tolerance, in cell widths, for deciding a coordinate sits exactly
# on a grid line. Shared by traverse_cells and by any independent checker
# that wants to agree with it at corner touches.
GRID_SNAP_REL = 1e-9


@dataclass(frozen=True)
class GeoPoint:
    """A geographic point in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidInputError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise InvalidInputError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise InvalidInputError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class PlanarPoint:
    """A point in meters east (x) and north (y) of a study origin."""

    x: float
    y: float


@dataclass(frozen=True, order=True)
class GridIndex:
    """A raster cell address, row 0 at the south edge; ordered by (row, col)."""

    row: int
    col: int


def project(p: GeoPoint, origin: GeoPoint) -> PlanarPoint:
    """Project a geographic point to local planar meters.

    Equirectangular about the origin: x scales longitude by cos(origin.lat),
    y scales latitude directly. Intended for points within a few degrees of
    the origin; beyond 5 degrees the flat-earth error is no longer
    negligible and the call is refused.
    """
    if abs(p.lat - origin.lat) >= 5.0 or abs(p.lon - origin.lon) >= 5.0:
        raise InvalidInputError(
            f"point ({p.lat}, {p.lon}) too far from origin "
            f"({origin.lat}, {origin.lon}) for a local projection"
        )
    x = EARTH_RADIUS_M * math.radians(p.lon - origin.lon) * math.cos(math.radians(origin.lat))
    y = EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
    return PlanarPoint(x, y)


def unproject(pt: PlanarPoint, origin: GeoPoint) -> GeoPoint:
    """Invert project() about the same origin."""
    lat = origin.lat + math.degrees(pt.y / EARTH_RADIUS_M)
    lon = origin.lon + math.degrees(
        pt.x / (EARTH_RADIUS_M * math.cos(math.radians(origin.lat)))
    )
    return GeoPoint(lat, lon)


def polyline_length_miles(points: Sequence[GeoPoint]) -> float:
    """Planar length of a polyline, in statute miles.

    Each segment is measured in its own projection centered on the segment
    midpoint, which keeps the result independent of traversal direction;
    a segment too long for it to project raises InvalidInputError.
    """
    if len(points) == 0:
        raise InvalidInputError("polyline needs at least one point")
    meters = 0.0
    for p, q in zip(points, points[1:]):
        mid = GeoPoint((p.lat + q.lat) / 2.0, (p.lon + q.lon) / 2.0)
        try:
            a = project(p, mid)
            b = project(q, mid)
        except InvalidInputError:
            raise InvalidInputError(f"segment ({p.lat}, {p.lon}) to ({q.lat}, {q.lon}) "
                                    "too long for a local projection") from None
        meters += math.hypot(b.x - a.x, b.y - a.y)
    return meters / METERS_PER_MILE


@dataclass(frozen=True)
class RasterFrame:
    """Geometry of a study raster: shape, southwest origin, square cells."""

    nrows: int
    ncols: int
    origin: GeoPoint
    cell_size: float

    def __post_init__(self) -> None:
        if self.nrows <= 0 or self.ncols <= 0:
            raise InvalidInputError(f"raster shape {self.nrows}x{self.ncols} not positive")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0.0):
            raise InvalidInputError(f"cell size {self.cell_size} not positive")
        if not math.isfinite(max(self.nrows, self.ncols) * self.cell_size):
            raise InvalidInputError(f"raster extent of {self.nrows}x{self.ncols} cells not finite")

    @property
    def width_m(self) -> float:
        return self.ncols * self.cell_size

    @property
    def height_m(self) -> float:
        return self.nrows * self.cell_size

    def contains(self, p: PlanarPoint) -> bool:
        """True if p lies in the closed raster extent."""
        return 0.0 <= p.x <= self.width_m and 0.0 <= p.y <= self.height_m

    def to_planar(self, g: GeoPoint) -> PlanarPoint:
        """`project` about the origin. A point too far from it to project
        cannot be placed on the raster and raises OutOfBoundsError."""
        try:
            return project(g, self.origin)
        except InvalidInputError as exc:
            raise OutOfBoundsError(str(exc)) from None

    def cell_of(self, p: PlanarPoint) -> GridIndex:
        """Cell containing p. Points on the far north/east boundary are
        assigned to the last row/column so every in-extent point has a cell.
        """
        if not self.contains(p):
            raise OutOfBoundsError(
                f"point ({p.x:.3f}, {p.y:.3f}) m outside raster extent "
                f"{self.width_m:.1f} x {self.height_m:.1f} m"
            )
        col = min(int(p.x // self.cell_size), self.ncols - 1)
        row = min(int(p.y // self.cell_size), self.nrows - 1)
        return GridIndex(row, col)


def _snap(t: float) -> float:
    """Pull t onto the nearest integer when it is within GRID_SNAP_REL."""
    r = round(t)
    if abs(t - r) <= GRID_SNAP_REL * max(1.0, abs(t)):
        return float(r)
    return t


def traverse_cells(a: PlanarPoint, b: PlanarPoint, frame: RasterFrame) -> list[GridIndex]:
    """All cells whose closed square the segment a-b intersects, sorted by
    (row, col).

    Walks the columns the segment overlaps and, inside each column slab,
    takes the closed row span of the segment's restriction to that slab.
    Because cells are closed squares this is a supercover: touching an edge
    or corner claims the cell, and a segment through an exact lattice corner
    claims all four cells around it. Both endpoints must lie inside the
    raster extent.
    """
    for p in (a, b):
        if not frame.contains(p):
            raise OutOfBoundsError(
                f"segment endpoint ({p.x:.3f}, {p.y:.3f}) m outside raster extent"
            )
    cs = frame.cell_size
    u0, v0 = _snap(a.x / cs), _snap(a.y / cs)
    u1, v1 = _snap(b.x / cs), _snap(b.y / cs)
    du, dv = u1 - u0, v1 - v0

    c_lo = math.ceil(min(u0, u1) - 1.0)
    c_hi = math.floor(max(u0, u1))
    cells: set[tuple[int, int]] = set()
    for c in range(max(c_lo, 0), min(c_hi, frame.ncols - 1) + 1):
        if du != 0.0:
            ta = (c - u0) / du
            tb = ((c + 1) - u0) / du
            t_lo = max(min(ta, tb), 0.0)
            t_hi = min(max(ta, tb), 1.0)
            if t_lo > t_hi:
                continue
            va = _snap(v0 + t_lo * dv)
            vb = _snap(v0 + t_hi * dv)
        else:
            va, vb = v0, v1
        r_lo = math.ceil(min(va, vb) - 1.0)
        r_hi = math.floor(max(va, vb))
        for r in range(max(r_lo, 0), min(r_hi, frame.nrows - 1) + 1):
            cells.add((r, c))
    return [GridIndex(r, c) for r, c in sorted(cells)]
