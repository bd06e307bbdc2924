"""Output checks computed apart from gridfire.

Everything here reads the study's input files and the program's output
files directly, and recomputes what the outputs must say from the rules
the README and the module docstrings state: scenario order, ignition
placement, cell acreage, line lengths, the loss formulas and the ranking.
Nothing is compared against a stored copy of an earlier output.
"""

from __future__ import annotations

import bisect
import configparser
import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_MILE = 1609.344
SQUARE_METERS_PER_ACRE = 4046.8564224
SEASON_MONTHS = (1, 4, 7, 10)  # winter, spring, summer, fall
WINTER, SUMMER = 0, 2
REL_TOL = 1e-9
ACRE_REL_TOL = 1e-8  # the program rounds m²-to-acre to 12 significant digits


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario matrix, as the study definition implies it."""

    line_id: int
    season: int
    ignition: int
    row: int
    col: int
    start: datetime
    burnable: bool


@dataclass
class Study:
    """The study inputs, read from the files `gridfire synth` wrote."""

    nrows: int
    ncols: int
    cell_size: float
    origin_lat: float
    origin_lon: float
    burnable: np.ndarray  # row 0 is the south edge
    routes: dict[int, list[tuple[float, float]]]
    miles: dict[int, float]
    config: configparser.ConfigParser


def _read_fuel_grid(path: Path) -> tuple[dict[str, float], np.ndarray]:
    lines = path.read_text().splitlines()
    header = {}
    for line in lines[:6]:
        key, value = line.split()
        header[key.lower()] = float(value)
    data = np.array([[float(v) for v in line.split()] for line in lines[6:] if line.strip()])
    return header, data[::-1]  # files store the north row first


def _project(lat: float, lon: float, lat0: float, lon0: float) -> tuple[float, float]:
    x = EARTH_RADIUS_M * math.radians(lon - lon0) * math.cos(math.radians(lat0))
    y = EARTH_RADIUS_M * math.radians(lat - lat0)
    return x, y


def _route_miles(route: list[tuple[float, float]]) -> float:
    meters = 0.0
    for (lat_a, lon_a), (lat_b, lon_b) in zip(route, route[1:]):
        mid_lat, mid_lon = (lat_a + lat_b) / 2.0, (lon_a + lon_b) / 2.0
        ax, ay = _project(lat_a, lon_a, mid_lat, mid_lon)
        bx, by = _project(lat_b, lon_b, mid_lat, mid_lon)
        meters += math.hypot(bx - ax, by - ay)
    return meters / METERS_PER_MILE


def load_study(study_dir: Path, overrides: dict[str, str]) -> Study:
    """Read the inputs; `overrides` are the `--set study.key=value` pairs."""
    config = configparser.ConfigParser()
    config.read(study_dir / "study.ini")
    for key, value in overrides.items():
        section, _, option = key.partition(".")
        config.set(section, option, value)

    header, fuel = _read_fuel_grid(study_dir / config.get("paths", "landscape_dir") / "fuel.asc")
    with open(study_dir / config.get("paths", "fuel_catalog"), newline="") as fh:
        can_burn = {int(r["id"]) for r in csv.DictReader(fh) if r["burnable"].strip() == "1"}
    burnable = np.isin(np.rint(fuel).astype(np.int64), sorted(can_burn))

    doc = json.loads((study_dir / config.get("paths", "network")).read_text())
    routes = {
        int(b["id"]): [(float(lat), float(lon)) for lat, lon in b["route"]]
        for b in doc["branches"]
        if b["kind"] == "line"
    }
    return Study(
        nrows=int(header["nrows"]),
        ncols=int(header["ncols"]),
        cell_size=header["cellsize"],
        origin_lat=header["yllcorner"],
        origin_lon=header["xllcorner"],
        burnable=burnable,
        routes=routes,
        miles={j: _route_miles(r) for j, r in routes.items()},
        config=config,
    )


def _ignition_cells(study: Study, line_id: int, count: int, placement: str, seed: int):
    """Cells at arc-length fractions along the planar route, snapped down."""
    pts = [_project(lat, lon, study.origin_lat, study.origin_lon) for lat, lon in study.routes[line_id]]
    seg = [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, pts[1:])]
    cum = [0.0]
    for s in seg:
        cum.append(cum[-1] + s)
    if placement == "even":
        fracs = [k / (count + 1) for k in range(1, count + 1)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, line_id]))
        fracs = sorted(float(f) for f in rng.random(count))
    cells = []
    for f in fracs:
        target = f * cum[-1]
        i = min(bisect.bisect_right(cum, target), len(seg)) - 1
        t = (target - cum[i]) / seg[i] if seg[i] > 0 else 0.0
        (px, py), (qx, qy) = pts[i], pts[i + 1]
        x, y = px + t * (qx - px), py + t * (qy - py)
        cells.append((min(int(y // study.cell_size), study.nrows - 1),
                      min(int(x // study.cell_size), study.ncols - 1)))
    return cells


def scenario_matrix(study: Study) -> list[Scenario]:
    """Scenarios in (line id, season, ignition) order, with their cells."""
    cfg = study.config
    raw_ids = cfg.get("study", "line_ids", fallback="").strip()
    line_ids = sorted(int(t) for t in raw_ids.split(",")) if raw_ids else sorted(study.routes)
    year = cfg.getint("study", "year")
    hour = cfg.getint("study", "ignition_hour")
    starts = [datetime(year, m, 1, hour, tzinfo=timezone.utc) for m in SEASON_MONTHS]
    count = cfg.getint("study", "ignitions_per_line")
    out = []
    for j in line_ids:
        cells = _ignition_cells(study, j, count, cfg.get("study", "placement"), cfg.getint("study", "seed"))
        for s, start in enumerate(starts):
            for i, (r, c) in enumerate(cells, start=1):
                out.append(Scenario(j, s, i, r, c, start, bool(study.burnable[r, c])))
    return out


@dataclass(frozen=True)
class Row:
    line_id: int
    season: int
    ignition: int
    burned_cells: int
    burned_acres: float
    affected: frozenset[int]
    affected_miles: float


def read_results(path: Path) -> list[Row]:
    with open(path, newline="") as fh:
        return [
            Row(int(r["line_id"]), int(r["season"]), int(r["ignition_idx"]),
                int(r["burned_cells"]), float(r["burned_acres"]),
                frozenset(int(t) for t in r["affected_line_ids"].split(";") if t),
                float(r["affected_miles"]))
            for r in csv.DictReader(fh)
        ]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def check_scenarios(study: Study, matrix: list[Scenario], rows: list[Row], warnings: list[str]):
    """Per-scenario checks. Returns ({matrix index: reasons}, problems).

    `problems` lists faults that no single scenario owns: a missing or
    extra row, or warnings that do not line up with the zero burns.
    """
    bad: dict[int, list[str]] = {}
    problems = []
    if len(rows) != len(matrix):
        problems.append(f"{len(rows)} result rows for {len(matrix)} scenarios")
    acres_per_cell = study.cell_size * study.cell_size / SQUARE_METERS_PER_ACRE
    expected_warnings = []
    for k, (sc, row) in enumerate(zip(matrix, rows)):
        why = []
        if (row.line_id, row.season, row.ignition) != (sc.line_id, sc.season, sc.ignition):
            why.append("out of matrix order")
        if not _close(row.burned_acres, row.burned_cells * acres_per_cell, ACRE_REL_TOL):
            why.append("burned_acres is not burned cells times cell acreage")
        if (row.burned_cells == 0) != (not sc.burnable):
            why.append("zero burn does not match a non-burnable ignition cell")
        if sc.burnable and sc.line_id not in row.affected:
            why.append("own line missing from the affected set")
        if not row.affected <= study.miles.keys():
            why.append("affected set names a branch that is not a line")
        elif not _close(row.affected_miles, sum(study.miles[j] for j in sorted(row.affected))):
            why.append("affected_miles is not the sum of the affected lines' lengths")
        if not sc.burnable:
            expected_warnings.append((sc.line_id, sc.row, sc.col))
        if why:
            bad[k] = why
    if len(warnings) != len(expected_warnings):
        problems.append(f"{len(warnings)} warnings for {len(expected_warnings)} non-burnable ignitions")
    else:
        for text, (j, r, c) in zip(warnings, expected_warnings):
            if f"({r}, {c})" not in text or f"line {j}" not in text:
                problems.append(f"warning {text!r} does not name line {j} cell ({r}, {c})")
    return bad, problems


def check_risk(study: Study, rows: list[Row], risk_path: Path) -> list[str]:
    """Recompute lbe, lbl, wfl and the metric from results.csv."""
    cbe = study.config.getfloat("costs", "cbe_per_acre")
    cbl = study.config.getfloat("costs", "cbl_per_mile")
    groups: dict[int, dict[int, list[Row]]] = {}
    for r in rows:
        groups.setdefault(r.line_id, {}).setdefault(r.season, []).append(r)
    want = {}
    for j, seasons in groups.items():
        acres = [sum(r.burned_acres for r in g) / len(g) for g in seasons.values()]
        miles = [sum(sum(study.miles[i] for i in r.affected) for r in g) / len(g) for g in seasons.values()]
        lbe = cbe * sum(acres) / len(acres)
        lbl = cbl * sum(miles) / len(miles)
        want[j] = (lbe, lbl, lbe + lbl)
    top = max(v[2] for v in want.values())

    with open(risk_path, newline="") as fh:
        got = list(csv.DictReader(fh))
    problems = []
    if sorted(int(g["line_id"]) for g in got) != sorted(want):
        return [f"risk.csv covers lines {[g['line_id'] for g in got]}, results cover {sorted(want)}"]
    for g in got:
        j = int(g["line_id"])
        lbe, lbl, wfl = want[j]
        for name, value in (("lbe", lbe), ("lbl", lbl), ("wfl", wfl), ("metric", wfl / top)):
            if not _close(float(g[name]), value):
                problems.append(f"line {j}: {name} {g[name]} != recomputed {value!r}")
    metrics = [float(g["metric"]) for g in got]
    if metrics and metrics[0] != 1.0:
        problems.append(f"top line metric is {metrics[0]}, not 1")
    order = [(-float(g["metric"]), int(g["line_id"])) for g in got]
    if order != sorted(order) or [int(g["rank"]) for g in got] != list(range(1, len(got) + 1)):
        problems.append("risk.csv is not ranked by metric, then line id")
    return problems


def check_seasons(rows: list[Row]) -> list[str]:
    """Dry summer fires must outgrow damp winter ones on average."""
    def mean(season):
        acres = [r.burned_acres for r in rows if r.season == season]
        return sum(acres) / len(acres)

    summer, winter = mean(SUMMER), mean(WINTER)
    if not summer > winter:
        return [f"mean summer acres {summer} not above mean winter acres {winter}"]
    return []
