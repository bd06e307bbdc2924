"""Scenario matrix construction and batch execution.

A study enumerates one fire scenario per (ignitable line, ignition point,
season). Scenarios are independent: the batch runner may execute them in
process or across a worker pool, but results always come back in spec
order and are bit-identical regardless of worker count. Scenarios that
share a start time run together, so each weather hour's edge costs are
computed once per group (once per slice of a group, with a pool). A
scenario that fails for a domain reason (say, an ignition point on rock)
contributes a zeroed result with a warning instead of aborting the batch,
so per-line averages keep their fixed denominator I.
"""

from __future__ import annotations

import math
import multiprocessing
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from datetime import datetime
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .csvfile import Column, read_table, write_table
from .errors import CoverageError, InvalidInputError, OutOfBoundsError
from .geo import GridIndex, PlanarPoint, RasterFrame
from .landscape import LandscapeRaster, cell_acreage
from .network import Branch, Corridors, GridNetwork, ignitable_lines
from .risk import CostParams, LineRisk, rank_lines
from .spread import (
    BurnRaster,
    IgnitionSpec,
    SpreadEngine,
    SpreadParams,
    burned_area_acres,
    check_coverage,
)
from .weather import TIMESTAMP_FORMAT, WeatherSeries, season_starts

PLACEMENTS = ("even", "seeded-random")


@dataclass(frozen=True)
class StudyConfig:
    """Everything that defines a study besides the input datasets."""

    ignitions_per_line: int = 3
    seasons: tuple[datetime, ...] = field(default_factory=season_starts)
    duration_hours: float = 24.0
    placement: str = "even"
    seed: int = 0
    spread: SpreadParams = field(default_factory=SpreadParams)
    costs: CostParams = field(default_factory=CostParams)
    buffer_cells: int = 0
    line_ids: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.ignitions_per_line < 1:
            raise InvalidInputError(f"ignitions_per_line must be >= 1, got {self.ignitions_per_line}")
        if not self.seasons:
            raise InvalidInputError("seasons must be non-empty")
        if len(set(self.seasons)) != len(self.seasons):
            raise InvalidInputError("seasons must be distinct instants, got "
                                    + ", ".join(s.isoformat() for s in self.seasons))
        if not self.duration_hours > 0:
            raise InvalidInputError(f"duration {self.duration_hours} h must be positive")
        if self.placement not in PLACEMENTS:
            raise InvalidInputError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.buffer_cells < 0:
            raise InvalidInputError(f"buffer_cells must be >= 0, got {self.buffer_cells}")
        object.__setattr__(self, "seasons", tuple(self.seasons))
        if self.line_ids is not None:
            object.__setattr__(self, "line_ids", tuple(self.line_ids))


@dataclass(frozen=True)
class ScenarioResult:
    """The fields before `warning` are the columns of results.csv, in order."""

    line_id: int
    season_index: int
    ignition_index: int
    burned_cell_count: int
    burned_acres: float
    affected_line_ids: frozenset[int]
    affected_miles: float
    warning: Optional[str] = None

    def __post_init__(self) -> None:
        if self.season_index < 0:
            raise InvalidInputError(f"negative season index {self.season_index}")
        if self.burned_cell_count < 0:
            raise InvalidInputError(f"negative burned_cells {self.burned_cell_count}")
        for label, v in (("burned_acres", self.burned_acres),
                         ("affected_miles", self.affected_miles)):
            if not (math.isfinite(v) and v >= 0.0):
                raise InvalidInputError(f"{label} {v} must be finite and >= 0")


RESULT_COLUMNS = (
    Column("line_id", int),
    Column("season", int),
    Column("ignition_idx", int),
    Column("burned_cells", int),
    Column("burned_acres", float),
    Column("affected_line_ids", lambda text: frozenset(int(t) for t in text.split(";") if t),
           lambda ids: ";".join(map(str, sorted(ids)))),
    Column("affected_miles", float),
)
RESULTS_HEADER = ",".join(c.name for c in RESULT_COLUMNS)
_result_row = attrgetter(*(f.name for f in fields(ScenarioResult)[:len(RESULT_COLUMNS)]))


def place_ignitions(
    b: Branch, count: int, placement: str, seed: int, frame: RasterFrame
) -> list[GridIndex]:
    """Ignition cells along a line's route.

    `even` picks arc-length fractions k/(count+1); `seeded-random` draws
    `count` uniform fractions from a PRNG keyed by (seed, line id), sorted.
    Points are snapped to their containing cell; duplicate cells are kept,
    since each ignition index is its own scenario. A route point too far
    from the raster's origin to project, or an ignition point outside the
    raster, raises OutOfBoundsError naming the line.
    """
    if count < 1:
        raise InvalidInputError(f"ignition count must be >= 1, got {count}")
    if placement not in PLACEMENTS:
        raise InvalidInputError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    if not b.is_line:
        raise InvalidInputError(f"branch {b.id} is a {b.kind}, not a line")

    try:
        pts = [frame.to_planar(p) for p in b.route]
    except OutOfBoundsError as exc:
        raise OutOfBoundsError(f"line {b.id}: {exc}") from None
    seg_len = [math.hypot(q.x - p.x, q.y - p.y) for p, q in zip(pts, pts[1:])]
    cum = [0.0]
    for s in seg_len:
        cum.append(cum[-1] + s)
    total = cum[-1]
    if total <= 0.0:
        raise InvalidInputError(f"line {b.id} has zero planar length")

    if placement == "even":
        fracs = [k / (count + 1) for k in range(1, count + 1)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, b.id]))
        fracs = sorted(float(f) for f in rng.random(count))

    cells = []
    for f in fracs:
        target = f * total
        i = min(bisect_right(cum, target), len(seg_len)) - 1
        t = (target - cum[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
        p, q = pts[i], pts[i + 1]
        point = PlanarPoint(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
        try:
            cells.append(frame.cell_of(point))
        except OutOfBoundsError as exc:
            raise OutOfBoundsError(f"line {b.id}: {exc}") from None
    return cells


def build_matrix(n: GridNetwork, cfg: StudyConfig, frame: RasterFrame) -> list[IgnitionSpec]:
    """Full scenario list, ordered by (line id, season index, ignition index)."""
    lines = ignitable_lines(n)
    if cfg.line_ids is not None:
        wanted = set(cfg.line_ids)
        known = {b.id for b in lines}
        missing = wanted - known
        if missing:
            raise InvalidInputError(f"line_ids {sorted(missing)} are not ignitable lines")
        lines = [b for b in lines if b.id in wanted]
    specs = []
    for b in lines:
        cells = place_ignitions(b, cfg.ignitions_per_line, cfg.placement, cfg.seed, frame)
        specs.extend(IgnitionSpec(b.id, idx, cell, start, cfg.duration_hours)
                     for start in cfg.seasons for idx, cell in enumerate(cells, start=1))
    return specs


@dataclass
class _BatchContext:
    engine: SpreadEngine
    wx: WeatherSeries
    alpha: float
    corridors: Corridors
    season_index: dict[datetime, int]


_CTX: Optional[_BatchContext] = None


def _result(ctx: _BatchContext, spec: IgnitionSpec, burn: BurnRaster) -> ScenarioResult:
    affected, miles = ctx.corridors.affected(burn.status)
    return ScenarioResult(
        line_id=spec.line_id,
        ignition_index=spec.ignition_index,
        season_index=ctx.season_index[spec.start],
        burned_cell_count=burn.burned_cell_count(),
        burned_acres=burned_area_acres(burn, ctx.alpha),
        affected_line_ids=affected,
        affected_miles=miles,
        warning=burn.warning,
    )


def _run_group(ctx: _BatchContext, specs: Sequence[IgnitionSpec]) -> list[ScenarioResult]:
    """Results of specs sharing one start time, in their order."""
    out: list[Optional[ScenarioResult]] = [None] * len(specs)
    for i, burn in ctx.engine.run_group(specs, ctx.wx):
        out[i] = _result(ctx, specs[i], burn)
    return out


def _worker(specs: list[IgnitionSpec]) -> list[ScenarioResult]:
    assert _CTX is not None, "batch context missing in worker"
    return _run_group(_CTX, specs)


def _slices(items: list[int], parts: int) -> list[list[int]]:
    """`items` cut into at most `parts` contiguous, near-equal slices."""
    parts = min(parts, len(items))
    q, r = divmod(len(items), parts)
    bounds = [k * q + min(k, r) for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def run_batch(
    specs: Sequence[IgnitionSpec],
    land: LandscapeRaster,
    wx: WeatherSeries,
    n: GridNetwork,
    cfg: StudyConfig,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Execute every scenario; results in spec order, one per spec.

    Specs sharing a start time run as one group in hour lockstep; with
    more than one worker, each group is cut into at most `workers`
    contiguous slices, and the pool holds no more processes than there
    are slices. Weather coverage and out-of-raster routes are
    checked before any simulation; an out-of-raster ignition raises
    OutOfBoundsError naming its line when its group starts. Per-scenario
    domain failures become zeroed results with warnings.
    """
    global _CTX
    if not specs:
        return []
    season_index = {start: i for i, start in enumerate(cfg.seasons)}
    groups: dict[datetime, list[int]] = {}
    for k, spec in enumerate(specs):
        if spec.start not in season_index:
            raise InvalidInputError(
                f"spec start {spec.start.isoformat()} not among configured seasons"
            )
        groups.setdefault(spec.start, []).append(k)
    for start, members in sorted(groups.items()):
        hours = max(specs[k].duration_hours for k in members)
        try:
            check_coverage(wx, start, hours)
        except CoverageError as exc:
            key = (f"study.duration_hours = {hours:g}" if wx.start <= start < wx.end else
                   f"study.seasons start {start.strftime(TIMESTAMP_FORMAT)} "
                   "(by default from study.year and study.ignition_hour)")
            raise CoverageError(f"{key}: {exc}") from None

    ctx = _BatchContext(
        engine=SpreadEngine(land, cfg.spread),
        wx=wx,
        alpha=cell_acreage(land),
        corridors=Corridors(ignitable_lines(n), land.frame, cfg.buffer_cells),
        season_index=season_index,
    )

    tasks = [part for members in groups.values() for part in _slices(members, workers)]
    task_specs = [[specs[k] for k in part] for part in tasks]
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        _CTX = ctx
        try:
            fork = multiprocessing.get_context("fork")
            with fork.Pool(processes=min(workers, len(tasks))) as pool:
                outs = pool.map(_worker, task_specs, chunksize=1)
        finally:
            _CTX = None
    else:
        outs = [_run_group(ctx, group) for group in task_specs]

    results: list[Optional[ScenarioResult]] = [None] * len(specs)
    for part, out in zip(tasks, outs):
        for k, res in zip(part, out):
            results[k] = res
    return results


def write_results(results: Sequence[ScenarioResult], path: str | Path) -> None:
    write_table(path, RESULT_COLUMNS, map(_result_row, results))


def read_results(path: str | Path) -> list[ScenarioResult]:
    """The rows of a results.csv, each a scenario that no other row has."""
    key = attrgetter("line_id", "season_index", "ignition_index")
    return [r for _, r in read_table(path, RESULT_COLUMNS, ScenarioResult, scenario=key)]


def season_tables(
    results: Sequence[ScenarioResult],
) -> tuple[dict[int, list[float]], dict[int, list[float]]]:
    """Per-line per-season means of burned acres and of damaged line miles.

    Returns (acres, miles): acres[j][s] and miles[j][s] average the
    `burned_acres` and the `affected_miles` of line j's ignition rows in
    season s, summed in row order.
    """
    if not results:
        raise InvalidInputError("no scenario results to aggregate")
    groups: dict[tuple[int, int], list[ScenarioResult]] = {}
    for r in results:
        groups.setdefault((r.line_id, r.season_index), []).append(r)
    n_seasons = max(s for _, s in groups) + 1
    acres: dict[int, list[float]] = {}
    miles: dict[int, list[float]] = {}
    for j in sorted({j for j, _ in groups}):
        acres[j], miles[j] = [], []
        for s in range(n_seasons):
            rows = groups.get((j, s))
            if not rows:
                raise InvalidInputError(f"line {j} has no scenarios for season {s}")
            acres[j].append(sum(r.burned_acres for r in rows) / len(rows))
            miles[j].append(sum(r.affected_miles for r in rows) / len(rows))
    return acres, miles


def assess_results(results: Sequence[ScenarioResult], costs: CostParams) -> list[LineRisk]:
    """LineRisk records of scenario results: `rank_lines` over their
    season tables, as `assess --from-tables` ranks published ones."""
    return rank_lines(*season_tables(results), costs)
