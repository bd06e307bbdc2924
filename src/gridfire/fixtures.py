"""Bundled study fixtures: reference tables, the IEEE 30-bus test network
with an authored geographic layout, and synthetic landscape/weather
generators sized for the default 128x128, 30 m study window.

The two reference tables hold published per-line seasonal burned-acreage
and damaged-line-mile figures for the 34 lines of the 30-bus system
(branch ids 11-16 and 36 are transformers and carry no geography). They
feed the metric layer directly and let the loss equations be exercised
against known aggregate values; they are not outputs of this engine.
`synth` writes them as table1.csv and table2.csv, in the format of the
season tables `assess` writes.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import InvalidInputError
from .geo import GeoPoint, PlanarPoint, unproject, polyline_length_miles
from .landscape import LandscapeRaster, SynthSpec, synth_landscape
from .network import Branch, Bus, GridNetwork
from .weather import SEASON_LABELS, STUDY_YEAR, WeatherSeries

# Per-line seasonal burned acres, in SEASON_LABELS order.
REFERENCE_BURNED_ACRES = {
    1: (80.7, 1267.0, 3879.4, 2163.9),
    2: (106.8, 1497.2, 4211.6, 2360.9),
    3: (78.3, 710.0, 2299.2, 1192.3),
    4: (163.7, 1375.0, 3460.6, 2206.6),
    5: (281.2, 1872.1, 4637.5, 2382.8),
    6: (322.1, 3285.0, 8230.4, 5107.3),
    7: (346.4, 1918.3, 5392.0, 3315.9),
    8: (1047.6, 2440.3, 6045.7, 4371.7),
    9: (656.1, 1837.7, 4969.7, 3620.8),
    10: (546.3, 2114.1, 6226.6, 4347.4),
    17: (61.7, 1066.5, 3293.3, 1800.9),
    18: (104.4, 1575.5, 3910.2, 2531.7),
    19: (295.4, 1195.8, 3119.5, 2153.2),
    20: (80.7, 873.2, 2680.0, 1586.2),
    21: (688.7, 1991.3, 4354.5, 3217.4),
    22: (201.7, 1265.8, 2872.2, 2057.1),
    23: (98.5, 321.5, 1111.6, 726.1),
    24: (816.2, 2926.7, 7117.0, 5164.2),
    25: (264.6, 471.0, 1440.2, 952.6),
    26: (277.6, 857.7, 3503.3, 2095.1),
    27: (880.3, 1216.0, 2798.6, 1719.0),
    28: (665.5, 701.1, 2195.9, 1389.8),
    29: (708.3, 498.3, 843.5, 589.0),
    30: (237.3, 746.2, 1767.7, 1398.7),
    31: (119.8, 1053.5, 3097.6, 2159.2),
    32: (944.9, 1352.4, 4094.7, 2817.0),
    33: (1987.1, 1715.5, 2672.9, 1933.8),
    34: (1492.4, 1245.7, 1479.4, 716.6),
    35: (2636.1, 1842.4, 1564.8, 1016.7),
    37: (2392.9, 1641.9, 1388.0, 805.5),
    38: (2341.9, 1510.8, 1332.9, 788.3),
    39: (614.5, 333.4, 469.8, 304.9),
    40: (832.8, 1110.4, 3584.0, 2056.0),
    41: (997.7, 1150.8, 2369.2, 1354.8),
}

# Per-line seasonal damaged line miles, in SEASON_LABELS order.
REFERENCE_DAMAGED_MILES = {
    1: (81.77, 81.77, 81.77, 81.77),
    2: (88.47, 88.47, 98.23, 88.47),
    3: (259.90, 259.90, 259.90, 259.90),
    4: (19.80, 58.33, 93.97, 93.97),
    5: (171.50, 171.50, 225.75, 225.75),
    6: (184.20, 225.75, 225.75, 225.75),
    7: (107.97, 107.97, 135.67, 107.97),
    8: (79.73, 79.73, 160.67, 93.47),
    9: (100.90, 161.63, 161.63, 161.63),
    10: (103.40, 103.40, 194.50, 140.25),
    17: (27.30, 36.80, 43.63, 43.63),
    18: (39.60, 39.60, 59.23, 39.60),
    19: (24.65, 24.65, 24.65, 24.65),
    20: (34.03, 39.40, 52.43, 48.30),
    21: (11.50, 17.70, 47.55, 24.05),
    22: (26.70, 26.70, 39.07, 26.70),
    23: (5.47, 8.20, 8.20, 8.20),
    24: (8.63, 8.63, 19.97, 17.23),
    25: (48.70, 48.70, 48.70, 48.70),
    26: (64.37, 64.37, 134.63, 134.63),
    27: (53.80, 119.40, 119.90, 119.40),
    28: (43.85, 43.85, 142.25, 142.25),
    29: (13.20, 13.20, 13.20, 13.20),
    30: (13.20, 13.20, 17.50, 17.50),
    31: (8.73, 13.10, 13.10, 13.10),
    32: (28.40, 28.40, 34.95, 34.95),
    33: (39.00, 43.37, 32.67, 32.67),
    34: (37.17, 37.17, 29.63, 29.63),
    35: (95.27, 95.27, 95.27, 20.70),
    37: (140.53, 98.33, 97.10, 97.10),
    38: (83.40, 83.40, 83.40, 83.40),
    39: (69.70, 69.70, 69.70, 69.70),
    40: (133.37, 123.90, 123.90, 123.90),
    41: (109.57, 109.57, 100.10, 100.10),
}

# IEEE 30-bus branch list in the standard ordering. Transformer branches
# (ids 11-16 and 36) are links: no geographic route, never ignitable.
IEEE30_BRANCHES = (
    (1, "line", 1, 2), (2, "line", 1, 3), (3, "line", 2, 4), (4, "line", 3, 4),
    (5, "line", 2, 5), (6, "line", 2, 6), (7, "line", 4, 6), (8, "line", 5, 7),
    (9, "line", 6, 7), (10, "line", 6, 8), (11, "link", 6, 9), (12, "link", 6, 10),
    (13, "link", 9, 11), (14, "link", 9, 10), (15, "link", 4, 12), (16, "link", 12, 13),
    (17, "line", 12, 14), (18, "line", 12, 15), (19, "line", 12, 16), (20, "line", 14, 15),
    (21, "line", 16, 17), (22, "line", 15, 18), (23, "line", 18, 19), (24, "line", 19, 20),
    (25, "line", 10, 20), (26, "line", 10, 17), (27, "line", 10, 21), (28, "line", 10, 22),
    (29, "line", 21, 22), (30, "line", 15, 23), (31, "line", 22, 24), (32, "line", 23, 24),
    (33, "line", 24, 25), (34, "line", 25, 26), (35, "line", 25, 27), (36, "link", 28, 27),
    (37, "line", 27, 29), (38, "line", 27, 30), (39, "line", 29, 30), (40, "line", 8, 28),
    (41, "line", 6, 28),
)

# Authored one-line-diagram layout on the unit square (x east, y north).
IEEE30_BUS_LAYOUT = {
    1: (0.08, 0.88), 2: (0.30, 0.88), 3: (0.08, 0.64), 4: (0.30, 0.64),
    5: (0.52, 0.88), 6: (0.52, 0.62), 7: (0.62, 0.78), 8: (0.72, 0.62),
    9: (0.62, 0.50), 10: (0.62, 0.38), 11: (0.74, 0.50), 12: (0.18, 0.44),
    13: (0.08, 0.50), 14: (0.10, 0.32), 15: (0.24, 0.30), 16: (0.32, 0.40),
    17: (0.48, 0.34), 18: (0.16, 0.20), 19: (0.30, 0.16), 20: (0.44, 0.22),
    21: (0.60, 0.24), 22: (0.68, 0.28), 23: (0.34, 0.08), 24: (0.56, 0.12),
    25: (0.72, 0.16), 26: (0.84, 0.10), 27: (0.80, 0.30), 28: (0.82, 0.50),
    29: (0.90, 0.22), 30: (0.92, 0.36),
}

# Mid-route waypoints (unit square) for a handful of longer lines, so the
# fixture exercises multi-segment routes rather than only straight spans.
IEEE30_WAYPOINTS = {
    5: ((0.41, 0.83),),
    7: ((0.40, 0.59),),
    25: ((0.55, 0.27),),
    30: ((0.25, 0.17),),
    33: ((0.63, 0.10),),
    40: ((0.81, 0.58),),
    41: ((0.66, 0.50),),
}

STUDY_ORIGIN = GeoPoint(37.85, -120.10)
STUDY_NROWS = 128
STUDY_NCOLS = 128
STUDY_CELL_M = 30.0

# Sum of line lengths of the default-extent fixture network, frozen for
# self-consistency checks (recomputed value must agree within 0.01 mi).
IEEE30_TOTAL_LINE_MILES = 13.0263


def ieee30_network(
    origin: GeoPoint = STUDY_ORIGIN,
    width_m: float = STUDY_NCOLS * STUDY_CELL_M,
    height_m: float = STUDY_NROWS * STUDY_CELL_M,
    margin_m: float = 250.0,
) -> GridNetwork:
    """IEEE 30-bus network scaled onto a study extent.

    Unit-square layout coordinates are mapped into the extent minus a
    margin, so every route (including waypoints) stays strictly inside
    the raster. An extent no wider or taller than two margins leaves no
    room for the layout and raises InvalidInputError.
    """
    if not (width_m > 2.0 * margin_m and height_m > 2.0 * margin_m):
        raise InvalidInputError(
            f"a {width_m:g} x {height_m:g} m extent leaves no room inside its "
            f"{margin_m:g} m margins for the network layout"
        )

    def to_geo(ux: float, uy: float) -> GeoPoint:
        x = margin_m + ux * (width_m - 2.0 * margin_m)
        y = margin_m + uy * (height_m - 2.0 * margin_m)
        return unproject(PlanarPoint(x, y), origin)

    buses = tuple(
        Bus(id=bid, location=to_geo(*IEEE30_BUS_LAYOUT[bid]))
        for bid in sorted(IEEE30_BUS_LAYOUT)
    )
    loc = {b.id: b.location for b in buses}
    branches = []
    for bid, kind, from_bus, to_bus in IEEE30_BRANCHES:
        if kind == "line":
            mids = tuple(to_geo(*uv) for uv in IEEE30_WAYPOINTS.get(bid, ()))
            route = (loc[from_bus], *mids, loc[to_bus])
            branches.append(
                Branch(
                    id=bid, kind=kind, from_bus=from_bus, to_bus=to_bus,
                    route=route, length_miles=polyline_length_miles(route),
                )
            )
        else:
            branches.append(Branch(id=bid, kind=kind, from_bus=from_bus, to_bus=to_bus))
    return GridNetwork(buses=buses, branches=tuple(branches))


def study_landscape(
    seed: int = 0,
    nrows: int = STUDY_NROWS,
    ncols: int = STUDY_NCOLS,
    cell_size: float = STUDY_CELL_M,
    origin: GeoPoint = STUDY_ORIGIN,
) -> LandscapeRaster:
    """Foothill-style synthetic terrain: rolling relief, mixed fuel mosaic
    (grass/shrub/timber with scattered non-burnable patches)."""
    spec = SynthSpec(
        nrows=nrows,
        ncols=ncols,
        cell_size=cell_size,
        origin=origin,
        seed=seed,
        elevation_base=650.0,
        elevation_gradient=(0.04, 0.06),
        elevation_relief=90.0,
        patch_cells=9.0,
        fuel_mix=((1, 0.50), (2, 0.28), (3, 0.14), (0, 0.08)),
    )
    return synth_landscape(spec)


def _ar_smooth(rng: np.random.Generator, n: int, span: int) -> np.ndarray:
    """Zero-mean smooth noise in roughly [-1, 1] with given correlation span."""
    raw = rng.standard_normal(n + span)
    kernel = np.ones(span) / span
    smooth = np.convolve(raw, kernel, mode="valid")[:n]
    peak = np.max(np.abs(smooth))
    return smooth / peak if peak > 0 else smooth


def study_weather(year: int = STUDY_YEAR, seed: int = 0) -> WeatherSeries:
    """Deterministic synthetic hourly weather for a full year.

    Seasonal and diurnal temperature cycles with correlated noise; relative
    humidity moves inversely with temperature (dry summer afternoons, damp
    winters); wind has a diurnal peak plus slow synoptic swings.
    """
    start = datetime(year, 1, 1, 0, 0, tzinfo=timezone.utc)
    end = datetime(year + 1, 1, 1, 0, 0, tzinfo=timezone.utc)
    n = int((end - start) / timedelta(hours=1))
    t = np.arange(n, dtype=np.float64)
    doy = t / 24.0
    hod = t % 24.0

    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    seasonal = np.cos(2.0 * np.pi * (doy - 196.0) / 365.0)
    diurnal = np.cos(2.0 * np.pi * (hod - 15.0) / 24.0)
    temp = 12.0 + 10.0 * seasonal + 6.0 * diurnal + 2.0 * _ar_smooth(rng, n, 36)
    rh = np.clip(64.0 - 2.3 * (temp - 12.0) + 7.0 * _ar_smooth(rng, n, 24), 12.0, 98.0)
    wind = np.clip(
        2.3 + 1.1 * np.cos(2.0 * np.pi * (hod - 14.0) / 24.0) + 1.6 * _ar_smooth(rng, n, 30),
        0.0, None,
    )
    wdir = (225.0 + 80.0 * _ar_smooth(rng, n, 48)) % 360.0

    temp = np.round(temp, 2)
    rh = np.round(rh, 2)
    wind = np.round(wind, 2)
    wdir = np.round(wdir, 2)
    wdir[wdir >= 360.0] = 0.0

    return WeatherSeries.from_columns(start, wind, wdir, temp, rh)

