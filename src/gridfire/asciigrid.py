"""Minimal ESRI ASCII grid reader and writer.

A grid file holds a RasterFrame (shape, southwest origin and cell size),
its NODATA value and its data. Files store the northernmost row first; in
memory we keep row 0 at the south edge to match the rest of the package,
so both functions flip the row order at the boundary.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import GridFireError, InvalidInputError
from .geo import GeoPoint, RasterFrame

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")

# The NODATA value of a header without a NODATA_value line.
NODATA = -9999.0


def read_ascii_grid(path: str | Path) -> tuple[RasterFrame, float, np.ndarray]:
    """The grid's frame, its NODATA value and its read-only data.

    Errors name the file: a header that is not a valid RasterFrame (a
    count that is not a whole number, a bad origin, cell size or extent)
    or a body of the wrong shape raises InvalidInputError.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read grid file {path}: {exc}") from exc
    lines = text.splitlines()
    header: dict[str, float] = {}
    body_start = 0
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 2 and parts[0].lower() in _HEADER_KEYS:
            try:
                header[parts[0].lower()] = float(parts[1])
            except ValueError as exc:
                raise InvalidInputError(f"{path}: bad header line {i + 1}: {line!r}") from exc
            body_start = i + 1
        else:
            break
    for key in _HEADER_KEYS[:5]:
        if key not in header:
            raise InvalidInputError(f"{path}: missing header field {key}")
    try:
        frame = RasterFrame(
            nrows=_count(header, "nrows"),
            ncols=_count(header, "ncols"),
            origin=GeoPoint(header["yllcorner"], header["xllcorner"]),
            cell_size=header["cellsize"],
        )
    except (GridFireError, ValueError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    nodata = header.get("nodata_value", NODATA)

    try:
        values = np.loadtxt(lines[body_start:], dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: unparseable grid body: {exc}") from exc
    if values.shape != (frame.nrows, frame.ncols):
        raise InvalidInputError(
            f"{path}: body shape {values.shape} does not match header {frame.nrows}x{frame.ncols}"
        )
    # File order is north first; flip so row 0 is the south row.
    data = np.ascontiguousarray(values[::-1, :])
    data.flags.writeable = False
    return frame, nodata, data


def _count(header: dict[str, float], key: str) -> int:
    """A header count, which must be a whole number (128 or 128.0)."""
    value = header[key]
    if not value.is_integer():
        raise ValueError(f"{key} {value!r} is not a whole number")
    return int(value)


def write_ascii_grid(path: str | Path, frame: RasterFrame, nodata: float, data: np.ndarray) -> None:
    """Write data (row 0 at the south, shaped like the frame) as a grid file."""
    out = [
        f"ncols {frame.ncols}",
        f"nrows {frame.nrows}",
        f"xllcorner {frame.origin.lon!r}",
        f"yllcorner {frame.origin.lat!r}",
        f"cellsize {frame.cell_size!r}",
        f"NODATA_value {nodata!r}",
    ]
    for row in data[::-1, :]:
        out.append(" ".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(out) + "\n")


def _fmt(v: float) -> str:
    """Shortest exact decimal for a float, integers without a trailing .0."""
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)
