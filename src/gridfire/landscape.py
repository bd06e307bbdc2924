"""Landscape raster: three terrain/fuel layers plus the fuel catalog.

The layers are slope, aspect and fuel model, the three the surface spread
model reads. Synthesis derives slope and aspect from an elevation surface
it does not keep. Other files in a landscape directory, an elevation grid
among them, are not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .asciigrid import NODATA, read_ascii_grid, write_ascii_grid
from .csvfile import Column, read_table, write_table
from .errors import GridFireError, InvalidInputError
from .geo import GeoPoint, RasterFrame

ACRES_PER_SQUARE_METER = 0.000247105381

LAYER_FILES = {
    "slope": "slope.asc",
    "aspect": "aspect.asc",
    "fuel": "fuel.asc",
}

@dataclass(frozen=True)
class FuelModel:
    """Spread parameters for one fuel class.

    base_ros is the rate of spread in m/min at zero wind, zero slope, and
    the reference humidity; wind_coeff and wind_exp shape the wind response
    (head/back ratio 1 + k_w * speed**b); moisture_exp controls humidity
    sensitivity.
    """

    id: int
    name: str
    burnable: bool
    base_ros: float
    wind_coeff: float
    wind_exp: float
    moisture_exp: float

    def __post_init__(self) -> None:
        if self.base_ros < 0:
            raise InvalidInputError(f"fuel {self.id}: negative base_ros {self.base_ros}")
        for label, v in (("base_ros", self.base_ros),
                         ("wind_coeff", self.wind_coeff),
                         ("wind_exp", self.wind_exp),
                         ("moisture_exp", self.moisture_exp)):
            if not (math.isfinite(v) and v >= 0):
                raise InvalidInputError(f"fuel {self.id}: {label} must be finite and >= 0, got {v}")
        if self.burnable != (self.base_ros > 0):
            raise InvalidInputError(
                f"fuel {self.id}: burnable flag disagrees with base_ros {self.base_ros}"
            )


@dataclass(frozen=True)
class FuelCatalog:
    """Immutable id -> FuelModel map with a designated non-burnable id."""

    models: Mapping[int, FuelModel]
    non_burnable_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", MappingProxyType(dict(self.models)))
        nb = self.models.get(self.non_burnable_id)
        if nb is None:
            raise InvalidInputError(f"non-burnable id {self.non_burnable_id} missing from catalog")
        if nb.burnable:
            raise InvalidInputError(f"designated non-burnable fuel {self.non_burnable_id} is burnable")

    def lookup(self, fuel_id: int) -> FuelModel:
        try:
            return self.models[fuel_id]
        except KeyError:
            raise InvalidInputError(f"fuel id {fuel_id} not in catalog") from None

    def __contains__(self, fuel_id: int) -> bool:
        return fuel_id in self.models


def default_catalog() -> FuelCatalog:
    """Four-entry engine default: grass, shrub, timber litter, non-burnable.

    The numbers are deliberately round reference values, meant to be
    overridden by a catalog file when real fuel data is available.
    """
    models = {
        0: FuelModel(0, "nonburnable", False, 0.0, 0.0, 0.0, 0.0),
        1: FuelModel(1, "grass", True, 15.0, 0.4, 1.0, 1.0),
        2: FuelModel(2, "shrub", True, 8.0, 0.3, 1.0, 1.2),
        3: FuelModel(3, "timber_litter", True, 2.0, 0.15, 1.0, 1.5),
    }
    return FuelCatalog(models=models, non_burnable_id=0)


def _parse_flag(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ValueError(f"bad flag value {s!r}")


# The columns of a fuel catalog file, in FuelModel's field order.
CATALOG_COLUMNS = (
    Column("id", int),
    Column("name", str.strip, str),
    Column("burnable", _parse_flag, lambda flag: "1" if flag else "0"),
    Column("base_ros_m_min", float),
    Column("wind_coeff", float),
    Column("wind_exp", float),
    Column("moisture_exp", float),
)
_catalog_row = attrgetter(*(f.name for f in fields(FuelModel)))


def load_catalog(path: str | Path) -> FuelCatalog:
    """Read a fuel catalog CSV (id,name,burnable,base_ros_m_min,...)."""
    models = {m.id: m for _, m in read_table(path, CATALOG_COLUMNS, FuelModel,
                                             fuel=attrgetter("id"))}
    non_burnable = [m.id for m in models.values() if not m.burnable]
    if not non_burnable:
        raise InvalidInputError(f"{path}: catalog has no non-burnable entry")
    return FuelCatalog(models=models, non_burnable_id=min(non_burnable))


def write_catalog(catalog: FuelCatalog, path: str | Path) -> None:
    write_table(path, CATALOG_COLUMNS,
                [_catalog_row(catalog.models[fid]) for fid in sorted(catalog.models)])


@dataclass(frozen=True)
class LandscapeRaster:
    """Validated three-layer study raster. Row 0 is the south edge.

    Arrays are read-only; the raster is shared across scenario workers
    without copying.
    """

    frame: RasterFrame
    slope: np.ndarray
    aspect: np.ndarray
    fuel: np.ndarray
    catalog: FuelCatalog = field(default_factory=default_catalog)

    def __post_init__(self) -> None:
        shape = (self.frame.nrows, self.frame.ncols)
        for name in LAYER_FILES:
            arr = getattr(self, name)
            if arr.shape != shape:
                raise InvalidInputError(
                    f"layer {name} shape {arr.shape} does not match frame {shape}"
                )
            frozen = np.ascontiguousarray(arr)
            frozen.flags.writeable = False
            object.__setattr__(self, name, frozen)
        if not np.all((self.slope >= 0.0) & (self.slope < 90.0)):
            raise InvalidInputError("slope values outside [0, 90)")
        if not np.all((self.aspect >= 0.0) & (self.aspect < 360.0)):
            raise InvalidInputError("aspect values outside [0, 360)")
        present = np.unique(self.fuel)
        for fid in present:
            if int(fid) not in self.catalog:
                raise InvalidInputError(f"fuel id {int(fid)} not in catalog")

    @property
    def nrows(self) -> int:
        return self.frame.nrows

    @property
    def ncols(self) -> int:
        return self.frame.ncols

    @property
    def cell_size(self) -> float:
        return self.frame.cell_size

    def burnable_mask(self) -> np.ndarray:
        """Boolean grid, True where the cell's fuel model can carry fire."""
        burnable_ids = [fid for fid, m in self.catalog.models.items() if m.burnable]
        return np.isin(self.fuel, burnable_ids)


def cell_acreage(r: LandscapeRaster) -> float:
    """Acres covered by one cell: the cell area times the m² to acre ratio."""
    return r.cell_size * r.cell_size * ACRES_PER_SQUARE_METER


def load_landscape(directory: str | Path, catalog: FuelCatalog | None = None) -> LandscapeRaster:
    """Load the three layer files from a directory into one raster.

    All three must have the same RasterFrame; the raster keeps fuel.asc's.
    Other files in the directory are ignored. Cells flagged NODATA in any
    layer (nan cells, where the layer's NODATA value is nan) are forced to
    the non-burnable fuel with zeroed terrain, which keeps fire from
    crossing unknown ground. Every other fuel cell must hold a whole
    number in the int64 range (a catalog id). Errors name the file, or the
    directory when the raster refuses the layers' values.
    """
    directory = Path(directory)
    if catalog is None:
        catalog = default_catalog()
    grids = {}
    for layer, fname in LAYER_FILES.items():
        fpath = directory / fname
        if not fpath.exists():
            raise InvalidInputError(f"missing landscape layer file {fpath}")
        grids[layer] = read_ascii_grid(fpath)

    frame = grids["fuel"][0]
    for layer, (f, _, _) in grids.items():
        if f != frame:
            raise InvalidInputError(
                f"{directory / LAYER_FILES[layer]}: {f} does not match "
                f"{directory / LAYER_FILES['fuel']}: {frame}"
            )

    nodata = np.zeros((frame.nrows, frame.ncols), dtype=bool)
    for _, nd, data in grids.values():
        nodata |= np.isnan(data) if math.isnan(nd) else data == nd
    values = {layer: np.where(nodata, 0.0, data) for layer, (_, _, data) in grids.items()}

    fuel = values["fuel"]
    whole = (np.trunc(fuel) == fuel) & (fuel >= -(2.0**63)) & (fuel < 2.0**63)
    if not whole.all():
        r, c = np.argwhere(~whole)[0]
        raise InvalidInputError(
            f"{directory / LAYER_FILES['fuel']}: fuel code {float(fuel[r, c])!r} in row {r} "
            f"(row 0 is the south edge), column {c} is not a whole number in the int64 range"
        )
    fuel = fuel.astype(np.int64)
    fuel[nodata] = catalog.non_burnable_id

    try:
        return LandscapeRaster(frame=frame, slope=values["slope"], aspect=values["aspect"],
                               fuel=fuel, catalog=catalog)
    except GridFireError as exc:
        raise type(exc)(f"{directory}: {exc}") from None


def write_landscape(r: LandscapeRaster, directory: str | Path) -> None:
    """Write the three layer files for a raster (inverse of load_landscape)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for layer, fname in LAYER_FILES.items():
        write_ascii_grid(directory / fname, r.frame, NODATA, getattr(r, layer))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic landscape.

    Elevation is base + linear gradient + optional smoothed random relief.
    Slope and aspect are either given uniform values or derived from the
    elevation surface by central differences; the surface itself is not
    kept. Fuel is one uniform id, or a seeded patch mosaic when fuel_mix
    is set.
    """

    nrows: int
    ncols: int
    cell_size: float = 30.0
    origin: GeoPoint = GeoPoint(37.85, -120.10)
    seed: int = 0
    elevation_base: float = 800.0
    elevation_gradient: tuple[float, float] = (0.0, 0.0)  # dz/dx east, dz/dy north (m per m)
    elevation_relief: float = 0.0
    slope_deg: float | None = None
    aspect_deg: float | None = None
    fuel_id: int = 1
    fuel_mix: tuple[tuple[int, float], ...] | None = None
    patch_cells: float = 10.0


def synth_landscape(spec: SynthSpec, catalog: FuelCatalog | None = None) -> LandscapeRaster:
    """Build a LandscapeRaster from a SynthSpec, bit-reproducible per seed."""
    if catalog is None:
        catalog = default_catalog()
    frame = RasterFrame(spec.nrows, spec.ncols, spec.origin, spec.cell_size)

    y = (np.arange(spec.nrows, dtype=np.float64)[:, None] + 0.5) * spec.cell_size
    x = (np.arange(spec.ncols, dtype=np.float64)[None, :] + 0.5) * spec.cell_size
    gx, gy = spec.elevation_gradient
    elevation = spec.elevation_base + gx * x + gy * y + np.zeros((spec.nrows, spec.ncols))
    if spec.elevation_relief > 0.0:
        elevation = elevation + spec.elevation_relief * _smooth_field(
            spec.nrows, spec.ncols, spec.patch_cells, spec.seed, stream=1
        )

    if spec.slope_deg is None or spec.aspect_deg is None:
        slope, aspect = _slope_aspect(elevation, spec.cell_size)
    if spec.slope_deg is not None:
        slope = np.full((spec.nrows, spec.ncols), float(spec.slope_deg))
    if spec.aspect_deg is not None:
        aspect = np.full((spec.nrows, spec.ncols), float(spec.aspect_deg))

    if spec.fuel_mix is None:
        fuel = np.full((spec.nrows, spec.ncols), int(spec.fuel_id), dtype=np.int64)
    else:
        fuel = _patch_mosaic(spec)

    return LandscapeRaster(frame=frame, slope=slope, aspect=aspect, fuel=fuel, catalog=catalog)


def _slope_aspect(elevation: np.ndarray, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Slope (degrees) and the compass direction the terrain faces
    (downslope; 0 where flat) of an elevation surface, from one gradient."""
    dzdy, dzdx = np.gradient(elevation, cell_size)
    aspect = np.degrees(np.arctan2(-dzdx, -dzdy)) % 360.0
    flat = (dzdx == 0.0) & (dzdy == 0.0)
    return np.degrees(np.arctan(np.hypot(dzdx, dzdy))), np.where(flat, 0.0, aspect)


def _smooth_field(nrows: int, ncols: int, scale_cells: float, seed: int, stream: int) -> np.ndarray:
    """Smoothed standard-normal-ish field in [-1, 1], deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    raw = rng.standard_normal((nrows, ncols))
    k = max(1, int(round(scale_cells)))
    for axis in (0, 1):
        raw = _running_mean(raw, k, axis)
    peak = np.max(np.abs(raw))
    return raw / peak if peak > 0 else raw


def _running_mean(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    """The mean of the k values around each value of `a` along `axis`, the
    end values repeated past the ends: scipy.ndimage.uniform_filter1d(a,
    k, axis, mode="nearest"), bit for bit. Like scipy it sums the first
    window in order, then adds each step's entering value less its leaving
    one to that running sum, in sequence, and divides each sum by k."""
    a = np.moveaxis(a, axis, -1)
    lo, length = k // 2, a.shape[-1]
    line = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(lo, k - lo - 1)], mode="edge")
    steps = np.empty(a.shape)
    steps[..., 0] = np.add.accumulate(line[..., :k], axis=-1)[..., -1]
    np.subtract(line[..., k:], line[..., :length - 1], out=steps[..., 1:])
    return np.moveaxis(np.add.accumulate(steps, axis=-1) / k, -1, axis)


def _patch_mosaic(spec: SynthSpec) -> np.ndarray:
    """Carve one smooth field into patches whose area fractions match the
    fuel_mix weights (quantile thresholds keep the split exact)."""
    assert spec.fuel_mix is not None
    ids = [fid for fid, _ in spec.fuel_mix]
    weights = np.array([w for _, w in spec.fuel_mix], dtype=np.float64)
    if np.any(weights <= 0):
        raise InvalidInputError("fuel_mix weights must be positive")
    field = _smooth_field(spec.nrows, spec.ncols, spec.patch_cells, spec.seed, stream=100)
    order = np.argsort(field.ravel(), kind="stable")
    n = order.size
    cuts = np.round(np.cumsum(weights / weights.sum()) * n).astype(np.int64)
    cuts[-1] = n
    flat = np.empty(n, dtype=np.int64)
    start = 0
    for fid, stop in zip(ids, cuts):
        flat[order[start:stop]] = fid
        start = stop
    return flat.reshape(spec.nrows, spec.ncols)
