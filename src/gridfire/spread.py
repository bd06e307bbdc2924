"""Deterministic fire spread by minimum travel time on a cell lattice.

The fire front is modeled as shortest arrival time over a graph whose
nodes are burnable cells and whose edges connect each cell to its 8 queen
and 8 knight neighbors. An edge's traversal time is the center-to-center
distance over the harmonic mean of the directional rate of spread at its
two endpoints: half the distance at each endpoint's speed. For a queen
move that is the exact travel time over the two half-cells it crosses. A
knight move crosses four cells, a quarter of its length in each, but is
still priced by its endpoints alone; its two intermediate cells only
decide whether the edge exists (ROADMAP item 11 would price all four).
In uniform fuel a lattice fire grows as the convex hull of the 16 moves'
speed vectors: without wind that keeps about 97% of the model's circle,
and under wind it cuts the speed ellipse's narrow head, to 0.85-0.90 of
its area at the synthetic year's median wind and 0.77-0.85 at its 95th
percentile.

Weather is piecewise constant per hour, and an epoch is a run of
consecutive hours with bit-equal weather. A fire crosses an edge at the
speed of the epoch it is in; when the epoch ends part-way, the share
already crossed is kept and the rest is crossed at the next epoch's speed
(an epoch in which the edge is impassable makes no progress). Leaving
later never arrives earlier (the FIFO property), so epoch-by-epoch label
setting gives the exact earliest arrival (Orda & Rom 1990), the
minimum-travel-time reading of fire growth (Finney 2002), and constant
weather is one static search. Scenarios that share a start time run in
epoch lockstep on one graph: the cell graph, re-costed in place once per
epoch, plus one super-source node. A fire's first epoch is a search of it
from its ignition at minute 0; with no burned set to block, a block of
fires shares one search from their ignitions. Each later epoch runs one
search per fire from the super-source, whose out-edges reach the cells
across the fire's open edges (those leading out of its burned set) at the
minute it leaves them. The search never re-enters the burned set, and the
labels it freezes are never revised, so output is deterministic, burn
sets grow monotonically with duration, and weather after minute 60 * k
cannot change an arrival at or before it. A fire stops when its duration
is over or no edge leads out of its burned set. Scenarios with the same
ignition cell and duration are simulated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import CoverageError, InvalidInputError, OutOfBoundsError
from .geo import GridIndex
from .landscape import FuelModel, LandscapeRaster
from .weather import HOUR, WeatherSample, WeatherSeries

QUEEN_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
KNIGHT_OFFSETS = ((-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1))
OFFSETS = QUEEN_OFFSETS + KNIGHT_OFFSETS

MOISTURE_FACTOR_MIN = 0.1
MOISTURE_FACTOR_MAX = 3.0
# Largest wind factor an hour may give a fuel. A larger one makes the
# fuel's edges all but free, so a fire would cross whole components at once.
WIND_FACTOR_MAX = 1e3
SLOPE_GAIN = 0.3

# Bytes of distance rows one first-epoch block search may hold; sets how
# many fires of a group share one search in the first epoch.
FIRST_HOUR_BLOCK_BYTES = 4 << 20

# Edges re-costed per pass of `SpreadEngine._minutes`. Its two scratch
# arrays are this long, so they stay cache-sized however large the window.
RECOST_CHUNK = 1 << 14

# A cell's direction word has bit d set when an edge leaves it in direction
# d. _POPCOUNT[w] counts the set bits of a 16-bit word w.
_POPCOUNT = np.zeros(1 << 16, dtype=np.uint8)
for _b in range(16):
    _POPCOUNT[1 << _b:2 << _b] = _POPCOUNT[:1 << _b] + 1


@dataclass(frozen=True)
class SpreadParams:
    """Knobs of the spread model that are not fuel properties.

    `neighborhood` accepts only 16, the queen and knight moves of `OFFSETS`
    (at strong wind 8 moves keep about half the wind ellipse's area). It
    stays so that study files setting `spread.neighborhood` still load.
    """

    neighborhood: int = 16
    humidity_ref: float = 30.0
    min_ros: float = 0.01
    max_eccentricity: float = 0.95

    def __post_init__(self) -> None:
        if self.neighborhood != 16:
            raise InvalidInputError(f"neighborhood must be 16, got {self.neighborhood}")
        if not self.humidity_ref > 0:
            raise InvalidInputError(f"humidity_ref must be positive, got {self.humidity_ref}")
        if self.min_ros < 0:
            raise InvalidInputError(f"min_ros must be >= 0, got {self.min_ros}")
        if not 0.0 <= self.max_eccentricity < 1.0:
            raise InvalidInputError(
                f"max_eccentricity must be in [0, 1), got {self.max_eccentricity}"
            )


@dataclass(frozen=True)
class IgnitionSpec:
    """One fire scenario: where, when, and for how long."""

    line_id: int
    ignition_index: int
    cell: GridIndex
    start: datetime
    duration_hours: float

    def __post_init__(self) -> None:
        if not self.duration_hours > 0:
            raise InvalidInputError(f"duration {self.duration_hours} h must be positive")


@dataclass(frozen=True)
class BurnRaster:
    """Outcome of one spread simulation: arrival holds minutes since
    ignition for the cells that burned within the scenario duration and
    +inf elsewhere, and warning says why a fire could not start."""

    arrival: np.ndarray
    warning: Optional[str] = None

    @property
    def status(self) -> np.ndarray:
        """True where the cell burned: isfinite(arrival)."""
        return np.isfinite(self.arrival)


def _knight_intermediates(dr: int, dc: int) -> tuple[tuple[int, int], ...]:
    """Cells a knight-move segment crosses between its endpoints."""
    if abs(dr) + abs(dc) != 3:
        return ()
    if abs(dr) == 2:
        return ((dr // 2, 0), (dr // 2, dc))
    return ((0, dc // 2), (dr, dc // 2))


def moisture_factor(
    rel_humidity: float, moisture_exp: float, humidity_ref: float = SpreadParams.humidity_ref
) -> float:
    """Humidity damping of spread, clamped to [0.1, 3]."""
    try:
        raw = (humidity_ref / max(rel_humidity, 1.0)) ** moisture_exp
    except OverflowError:  # beyond any float, so above the clamp
        raw = math.inf
    return min(MOISTURE_FACTOR_MAX, max(MOISTURE_FACTOR_MIN, raw))


def slope_factor(
    slope_deg: float | np.ndarray, aspect_deg: float | np.ndarray, travel_dir_deg: float
) -> float | np.ndarray:
    """Upslope acceleration: 1 plus a term for travel aligned with upslope.

    aspect is the downslope-facing direction, so upslope is aspect + 180.
    Travel with any downslope component gets factor 1 (no slowdown).
    Takes scalars or numpy arrays (per-cell slope and aspect layers).
    """
    return _slope_factor(SLOPE_GAIN * np.tan(np.radians(slope_deg)),
                         np.radians(aspect_deg + 180.0), travel_dir_deg)


def _slope_factor(gain, upslope_rad, travel_dir_deg: float):
    """`slope_factor` from its two direction-free terms, SLOPE_GAIN *
    tan(slope) and the upslope direction in radians, so a caller that
    needs many directions computes them once."""
    align = np.cos(np.radians(travel_dir_deg) - upslope_rad)
    return 1.0 + gain * np.maximum(0.0, align)


def wind_factor(
    wind_speed: float,
    wind_dir_from: float,
    travel_dir_deg: float,
    wind_coeff: float,
    wind_exp: float,
    max_eccentricity: float = SpreadParams.max_eccentricity,
) -> float:
    """Elliptical wind shaping of spread by travel direction.

    The head factor H = 1 + k_w * speed**b fixes the ellipse elongation;
    travel straight downwind gets factor H, flanks and back get less, with
    the head-to-back ratio (1+e)/(1-e) for eccentricity e.
    """
    head = 1.0 + wind_coeff * wind_speed ** wind_exp
    ecc = min(max_eccentricity, math.sqrt(max(0.0, 1.0 - 1.0 / (head * head))))
    align = math.cos(math.radians(travel_dir_deg) - math.radians(wind_dir_from + 180.0))
    return head * (1.0 - ecc) / (1.0 - ecc * align)


def directional_ros(
    fuel: FuelModel,
    slope_deg: float,
    aspect_deg: float,
    w: WeatherSample,
    travel_dir_deg: float,
    params: SpreadParams | None = None,
) -> float:
    """Rate of spread (m/min) in a given compass travel direction."""
    if params is None:
        params = SpreadParams()
    if not fuel.burnable:
        return 0.0
    pm = moisture_factor(w.rel_humidity, fuel.moisture_exp, params.humidity_ref)
    ps = slope_factor(slope_deg, aspect_deg, travel_dir_deg)
    pe = wind_factor(
        w.wind_speed, w.wind_dir_from, travel_dir_deg,
        fuel.wind_coeff, fuel.wind_exp, params.max_eccentricity,
    )
    return fuel.base_ros * pm * ps * pe


class SpreadEngine:
    """Reusable spread machinery for one landscape and parameter set.

    Construction precomputes, per travel direction, the landscape half of
    every edge cost (distance over base_ros times the slope factor at each
    endpoint). Weather enters as a per-(fuel, direction) scalar each epoch,
    so re-costing the whole edge set for a new epoch is two table lookups,
    two products and a sum per edge. It runs in place, over chunks of
    RECOST_CHUNK edges, straight into the buffer the epoch's searches read,
    so an epoch holds no edge-length temporaries. The edges are held in
    CSR order, by source cell and then by direction, and each edge's
    reverse is the edge leaving its end cell in the opposite direction.
    Its position follows from the end cell's direction word (`_reverse`),
    so an epoch's search can block the edges back into a fire's burned set
    without a per-edge table of reverses.

    An edge holds 22 bytes: its end cell (int32), its two half-costs
    (float64 each) and its two keys into the (fuel, direction) table (uint8
    up to 16 burnable fuels, wider beyond). A cell holds 11: its CSR row
    start (int32), whether it burns, its direction word (uint16) and one
    slot of the tail that follows the end cells (int32). The min_ros floor
    is a limit per direction, not per edge. One engine serves any number
    of ignitions and holds no per-scenario state. Only the tail changes
    after construction: a group's graph (`run_group`) reads `_ends` whole,
    and a burning fire's search (`_search`) writes its super-source's end
    cells into the tail and reads them back within the one call, so an
    engine serves one thread at a time (a batch runs its workers as
    processes).
    """

    def __init__(self, land: LandscapeRaster, params: SpreadParams | None = None):
        self.land = land
        self.params = params or SpreadParams()
        self._build_structure()

    def _build_structure(self) -> None:
        """Build the CSR edge structure one direction at a time.

        Bit d of the direction word of flat cell i is set where the edge
        from i in direction d (an index into `OFFSETS`) exists. The CSR
        order is edges sorted by source cell, then by direction, so the
        edge at (i, d) sits at indptr[i] + rank(i, d), where rank counts the
        set bits of i's word below bit d. It ends at j = i + dr * ncols +
        dc. Each direction's edges are written straight into the engine's
        arrays, so the construction holds no edge-length temporaries beyond
        one direction's. The end cells go into a buffer of m + n slots whose
        head is `_indices`; its n-slot tail is `_search`'s scratch.
        """
        land, params = self.land, self.params
        nrows, ncols = land.nrows, land.ncols
        n = nrows * ncols

        self._theta_deg = [math.degrees(math.atan2(dc, dr)) % 360.0 for dr, dc in OFFSETS]
        ndirs = self._ndirs = len(OFFSETS)
        dists = np.array([land.cell_size * math.hypot(dr, dc) for dr, dc in OFFSETS])
        step = np.array([dr * ncols + dc for dr, dc in OFFSETS])

        burn_mask = land.burnable_mask()
        fuel_ids, inverse = np.unique(land.fuel[burn_mask], return_inverse=True)
        self._fuel_models: list[FuelModel] = [land.catalog.lookup(int(f)) for f in fuel_ids]
        base_ros = np.array([fm.base_ros for fm in self._fuel_models])
        # Each edge's keys into the per-epoch (fuel, direction) table are
        # fuel index * ndirs + direction, held in the narrowest unsigned
        # type that fits the table.
        self._table_size = len(self._fuel_models) * ndirs
        # Per key, the word bits of the directions before the opposite one.
        self._before_back = np.tile([(1 << OFFSETS.index((-dr, -dc))) - 1 for dr, dc in OFFSETS],
                                    len(self._fuel_models)).astype(np.uint16)
        key = np.min_scalar_type(max(self._table_size - 1, 0))
        fuel_key = np.zeros(n, dtype=key)
        fuel_key[burn_mask.ravel()] = inverse * ndirs
        base = np.zeros((nrows, ncols))
        base[burn_mask] = base_ros[inverse]

        gain = SLOPE_GAIN * np.tan(np.radians(land.slope))
        upslope = np.radians(land.aspect + 180.0)

        word = np.zeros((nrows, ncols), dtype=np.uint16)
        for d, (dr, dc) in enumerate(OFFSETS):
            r0, r1 = max(0, -dr), nrows - max(0, dr)
            c0, c1 = max(0, -dc), ncols - max(0, dc)
            if r0 >= r1 or c0 >= c1:
                continue
            ok = burn_mask[r0:r1, c0:c1] & burn_mask[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
            # A knight edge physically crosses two intermediate cells; the
            # edge exists only if they can carry fire, so a gap-free
            # non-burnable barrier one cell wide cannot be jumped.
            for mr, mc in _knight_intermediates(dr, dc):
                ok &= burn_mask[r0 + mr:r1 + mr, c0 + mc:c1 + mc]
            word[r0:r1, c0:c1] |= ok.astype(np.uint16) << d
        self._word = word = word.ravel()
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(_POPCOUNT[word], out=self._indptr[1:])

        m = int(self._indptr[-1])
        self._ends = np.empty(m + n, dtype=np.int32)
        self._hsrc, self._hdst = np.empty(m), np.empty(m)
        self._key_src = np.empty(m, dtype=key)
        self._key_dst = np.empty(m, dtype=key)
        for d in range(ndirs):
            src = np.flatnonzero(word & (1 << d))
            dst = src + step[d]
            e = self._indptr[src].astype(np.intp)
            e += _POPCOUNT[word[src] & ((1 << d) - 1)]
            phi_s = _slope_factor(gain, upslope, self._theta_deg[d])
            with np.errstate(divide="ignore"):
                half = (dists[d] * 0.5 / (base * phi_s)).ravel()
            self._ends[e] = dst
            self._hsrc[e] = half[src]
            self._hdst[e] = half[dst]
            self._key_src[e] = fuel_key[src] + d
            self._key_dst[e] = fuel_key[dst] + d
        # `_minutes` looks the keys up without numpy's per-lookup bounds
        # check (mode="clip"), so check them once here.
        if m and max(self._key_src.max(), self._key_dst.max()) >= self._table_size:
            raise RuntimeError("edge keys beyond the (fuel, direction) table")

        # The min_ros floor: an edge of direction d slower than dists[d] /
        # min_ros is impassable. Since the slope factor is at least 1, no
        # half-cost of fuel f in direction d exceeds _half_bound[f, d].
        with np.errstate(over="ignore"):  # a subnormal floor makes no edge too slow
            self._limit = dists / params.min_ros if params.min_ros > 0 else None
        with np.errstate(divide="ignore", over="ignore"):
            self._half_bound = (dists * 0.5 / base_ros[:, None]).ravel()
        self._n_cells = n
        self._burnable = burn_mask.ravel()

    @property
    def _indices(self) -> np.ndarray:
        """The end cell of every edge, in CSR order: the head of `_ends`."""
        return self._ends[:self._ends.size - self._n_cells]

    def _reverse(self, edge: np.ndarray, end: np.ndarray) -> np.ndarray:
        """The CSR positions of the reverses of the edges at positions
        `edge`, which end at the cells `end`: the edge from j in the
        direction o opposite an edge's sits at indptr[j] plus the number of
        j's edges before o, and the edge's source key gives o. Every index
        is in range, so the lookups skip numpy's bounds check (mode="clip")."""
        before = np.take(self._before_back, np.take(self._key_src, edge), mode="clip")
        word = np.take(self._word, end, mode="clip") & before
        return np.take(self._indptr, end, mode="clip") + np.take(_POPCOUNT, word, mode="clip")

    def _epoch_table(self, w: WeatherSample) -> np.ndarray:
        """Inverse weather factor per (fuel, direction), flattened. A fuel
        whose wind factor exceeds WIND_FACTOR_MAX in some direction, or
        overflows, raises InvalidInputError."""
        params, out = self.params, np.empty(self._table_size)
        for fi, fm in enumerate(self._fuel_models):
            pm = moisture_factor(w.rel_humidity, fm.moisture_exp, params.humidity_ref)
            try:
                wind = [wind_factor(w.wind_speed, w.wind_dir_from, theta, fm.wind_coeff,
                                    fm.wind_exp, params.max_eccentricity)
                        for theta in self._theta_deg]
            except OverflowError:
                wind = [math.inf]
            if not max(wind) <= WIND_FACTOR_MAX:
                raise InvalidInputError(f"fuel {fm.id}: wind_exp {fm.wind_exp:g} overflows the wind "
                                        f"factor at wind speed {w.wind_speed:g} m/s ({w.timestamp})")
            out[fi * self._ndirs:(fi + 1) * self._ndirs] = [1.0 / (pm * f) for f in wind]
        return out

    def _minutes(self, table: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the traversal minutes of every edge, in CSR order, under one
        weather table (`_epoch_table`) into `out` and return it; edges
        slower than the min_ros floor are impassable (+inf).

        Each cost is hsrc * table[key_src] + hdst * table[key_dst], the
        same operands in the same order whatever the chunking, so every
        cost is bit-identical to that expression's. The floor pass runs
        only when `_floor_bites(table)`; it then looks each edge's limit up
        by its key (key % 16 is the direction).
        """
        m = out.size
        floor = np.tile(self._limit, len(self._fuel_models)) if self._floor_bites(table) else None
        half, limit = np.empty(min(RECOST_CHUNK, m)), np.empty(min(RECOST_CHUNK, m))
        slow = np.empty(half.size, dtype=bool)
        for a in range(0, m, RECOST_CHUNK):
            b = min(a + RECOST_CHUNK, m)
            o, h = out[a:b], half[:b - a]
            np.take(table, self._key_src[a:b], out=o, mode="clip")
            o *= self._hsrc[a:b]
            np.take(table, self._key_dst[a:b], out=h, mode="clip")
            h *= self._hdst[a:b]
            o += h
            if floor is not None:
                lim, s = limit[:b - a], slow[:b - a]
                np.take(floor, self._key_src[a:b], out=lim, mode="clip")
                np.greater(o, lim, out=s)
                o[s] = np.inf
        return out

    def _floor_bites(self, table: np.ndarray) -> bool:
        """Whether the min_ros floor may make an edge impassable under one
        weather table. Rounding is monotone, so with M_d the largest
        fl(_half_bound * table) over the keys of direction d, no edge of
        direction d costs more than fl(M_d + M_d); when that is within the
        direction's limit for every d, no edge is slower than the floor."""
        if self._limit is None:
            return False
        with np.errstate(over="ignore"):
            worst = np.max((self._half_bound * table).reshape(-1, self._ndirs), axis=0,
                           initial=0.0)
            return not np.all(worst + worst <= self._limit)

    def edge_costs(self, w: WeatherSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge list (src, dst, minutes) under one fixed weather sample.

        Exposes the exact per-edge traversal times the epoch expansion
        uses, including the impassability floor, for independent
        shortest-path checks. Flat cell indexing is row * ncols + col.
        """
        src = np.repeat(np.arange(self._n_cells), np.diff(self._indptr))
        minutes = self._minutes(self._epoch_table(w), np.empty(src.size))
        return src, self._indices.astype(np.int64), minutes

    def run(self, ig: IgnitionSpec, wx: WeatherSeries) -> BurnRaster:
        """Simulate one ignition and return its burn raster.

        Raises OutOfBoundsError for an ignition outside the raster and
        CoverageError when the weather does not cover the fire's hours.
        """
        ((_, out),) = self.run_group([ig], wx)
        return out

    def run_group(
        self, specs: Sequence[IgnitionSpec], wx: WeatherSeries
    ) -> Iterator[tuple[int, BurnRaster]]:
        """Simulate ignitions that share one start time, in epoch lockstep.

        The group builds one graph, which every search reads: the cell
        graph plus a super-source, node n. Each epoch (`_epochs`) re-costs
        its edges once, in place, and every fire still burning advances by
        one search over it and ends the epoch in one step (`_step`). The
        first epoch searches the fires in blocks, with
        FIRST_HOUR_BLOCK_BYTES bounding a block's distance rows, in one
        search from their ignitions, the super-source's row left empty;
        later epochs search one fire at a time from the super-source
        (`_search`). Specs with the same ignition cell and duration (twins)
        share one fire, whose raster is yielded at each of their
        positions.

        Yields (position in specs, outcome) as soon as a scenario
        finishes, even between the first epoch's blocks, so only burning
        scenarios hold state. Every spec is checked before anything is
        searched or yielded, and the first that cannot run raises:
        OutOfBoundsError for an ignition outside the raster, CoverageError
        when the weather does not cover its hours. A non-burnable ignition
        cell yields an empty raster with a warning.
        """
        if not specs:
            return
        start = specs[0].start
        if any(ig.start != start for ig in specs):
            raise InvalidInputError("run_group needs specs that share one start time")
        land = self.land
        for ig in specs:
            r, c = ig.cell.row, ig.cell.col
            if not (0 <= r < land.nrows and 0 <= c < land.ncols):
                raise OutOfBoundsError(
                    f"ignition cell ({r}, {c}) of line {ig.line_id} outside raster "
                    f"{land.nrows}x{land.ncols}"
                )
            check_coverage(wx, start, ig.duration_hours)
        fires: dict[tuple[int, float], _Fire] = {}
        for i, ig in enumerate(specs):
            r, c = ig.cell.row, ig.cell.col
            idx = r * land.ncols + c
            if not self._burnable[idx]:
                yield i, self._raster(
                    np.full(self._n_cells, np.inf),
                    f"ignition cell ({r}, {c}) for line {ig.line_id} is non-burnable",
                )
                continue
            # Twins (same cell, same duration) burn alike: one fire serves all.
            fire = fires.get((idx, ig.duration_hours))
            if fire is None:
                fire = fires[idx, ig.duration_hours] = _Fire(ig, idx)
            fire.pos.append(i)

        # One graph serves every search of the group: the cell graph, whose
        # costs each epoch re-costs in place, and node n, the super-source,
        # whose row `_search` fills (empty in the first epoch). It spans the
        # whole cost buffer and the engine's whole `_ends`, since scipy's
        # CSR constructor copies a view shorter than half its base. The
        # buffer is zeroed because `dijkstra` checks the whole data array,
        # past the last row end too, for negative weights.
        n, m = self._n_cells, self._indices.size
        rows = min(max(1, FIRST_HOUR_BLOCK_BYTES // (8 * n)), len(fires))
        graph = csr_matrix((np.zeros(m + n), self._ends, np.append(self._indptr, np.int32(m + n))),
                           shape=(n + 1, n + 1))
        graph.indptr[n + 1] = m
        burning = list(fires.values())
        epochs = self._epochs(wx, start, max((fire.hours for fire in burning), default=0))
        while burning:
            e, e1, table = next(epochs)
            self._minutes(table, graph.data[:m])
            waiting, burning = burning, []
            per_block = rows if e == 0 else 1
            for b in range(0, len(waiting), per_block):
                block = waiting[b:b + per_block]
                if e == 0:
                    dist = dijkstra(graph, directed=True, indices=[fire.ig_idx for fire in block],
                                    limit=max(fire.t_hi(e1) for fire in block))
                else:
                    dist = [self._search(block[0], e, e1, graph)]
                for fire, row in zip(block, dist):
                    burn = self._step(fire, e, e1, row, graph)
                    if burn is None:
                        burning.append(fire)
                    else:
                        for pos in fire.pos:
                            yield pos, burn
                del dist, row  # free this block's rows before the next search

    def _epochs(self, wx: WeatherSeries, start: datetime,
                hours: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """(first hour, hour after the last, weather table) of each run of
        consecutive hours of `hours` from `start` with bit-equal tables."""
        e, table = 0, self._epoch_table(wx.at(start))
        for h in range(1, hours):
            after = self._epoch_table(wx.at(start + h * HOUR))
            if after.tobytes() != table.tobytes():
                yield e, h, table
                e, table = h, after
        yield e, hours, table

    def _step(
        self, fire: _Fire, e: int, e1: int, dist: np.ndarray, graph: csr_matrix
    ) -> Optional[BurnRaster]:
        """End a fire's epoch of hours [e, e1), given its search labels
        `dist` on the group's graph: freeze the labels inside the epoch,
        each a new cell, and unless the duration is over hand its open
        edges over. Returns None while it burns on, else its raster, once
        it has dropped its arrays."""
        n = self._n_cells
        newly = np.flatnonzero(dist[:n] <= fire.t_hi(e1))
        if fire.frozen is None:
            fire.frozen = np.full(n, np.inf)
        fire.frozen[newly] = dist[newly]
        if e1 < fire.hours:
            fire.hand_over(newly, 60.0 * e, 60.0 * e1, graph)
            if fire.edge.size:
                return None
        burn = self._raster(fire.frozen, None)
        fire.frozen = fire.edge = fire.left = None
        return burn

    def _search(self, fire: _Fire, e: int, e1: int, graph: csr_matrix) -> np.ndarray:
        """The labels of a burning fire's epoch of hours [e, e1): a search
        of the group's graph from node n, whose row, filled in here, reaches
        the fire's seeds (`_Fire.seeds`) at their seed minutes. Their end
        cells go into the engine's tail, after its own, which the search
        reads in place. The edges back into the burned set (the reverses of
        the open edges, `_reverse`) are blocked while it runs, so only
        unburned cells are settled."""
        n, values, ends, indptr = self._n_cells, graph.data, graph.indices, graph.indptr
        m = ends.size - n
        sources, times = fire.seeds(graph, 60.0 * e, fire.t_hi(e1))
        size = indptr[n + 1] = m + sources.size
        ends[m:size] = sources
        values[m:size] = times
        back = self._reverse(fire.edge, ends[fire.edge])
        blocked = values[back]
        values[back] = np.inf
        dist = dijkstra(graph, directed=True, indices=n, limit=fire.t_hi(e1))
        values[back] = blocked
        return dist

    def _raster(self, arrival: np.ndarray, warning: Optional[str]) -> BurnRaster:
        return BurnRaster(arrival.reshape(self.land.nrows, self.land.ncols), warning)


class _Fire:
    """State of one fire inside `SpreadEngine.run_group`, serving every
    spec of the group with its ignition cell and duration (`pos`, their
    positions). Its arrival labels `frozen` are +inf where a cell has not
    burned (None before its first epoch), so its burned set is the finite
    labels. Its open edges are the CSR positions `edge` of the edges from
    a burned cell to an unburned one, each with the share `left` of it
    still to cross when the next epoch starts. A finished fire drops all
    three arrays. Its methods read costs, end cells and row starts from the
    group's graph."""

    def __init__(self, ig: IgnitionSpec, ig_idx: int):
        self.pos: list[int] = []
        self.ig_idx = ig_idx
        self.hours = math.ceil(ig.duration_hours)
        self.duration_min = ig.duration_hours * 60.0
        self.frozen: Optional[np.ndarray] = None
        self.edge = np.empty(0, dtype=np.int64)
        self.left = np.empty(0)

    def t_hi(self, e1: int) -> float:
        """The last minute the fire burns in an epoch that ends at hour e1."""
        return min(60.0 * e1, self.duration_min)

    def seeds(
        self, graph: csr_matrix, t_lo: float, t_hi: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The unburned cells that the fire on an open edge reaches by
        minute t_hi, under the costs of `graph` in the epoch starting at
        t_lo, each with the earliest such minute: the fire leaves an edge
        of cost c at t_lo + left * c, +inf if it is impassable."""
        with np.errstate(invalid="ignore"):  # left 0 (rounding) times inf
            leave = t_lo + self.left * graph.data[self.edge]
        soon = np.flatnonzero(leave <= t_hi)
        cells = graph.indices[self.edge[soon]]
        order = np.argsort(cells)
        cells, leave = cells[order], leave[soon[order]]
        first = np.flatnonzero(np.diff(cells, prepend=-1))
        return cells[first], np.minimum.reduceat(leave, first)

    def hand_over(self, new: np.ndarray, t_lo: float, t_end: float, graph: csr_matrix) -> None:
        """Carry the open edges over the epoch boundary at minute t_end,
        given the cells `new` that burned in the epoch from t_lo to t_end
        under the costs of `graph`: close the edges into those cells, take
        the epoch's progress off the others, and open every edge from one
        of them to a cell that has not burned, less the share crossed since
        the fire entered it."""
        frozen, minutes, indices, indptr = self.frozen, graph.data, graph.indices, graph.indptr
        first = indptr[new]
        deg = indptr[new + 1] - first
        edge = np.repeat(first - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
        # Positions, not boolean masks, pick the open edges: one index array
        # then serves `edge` and `entered`.
        opened = np.flatnonzero(np.take(frozen, indices[edge], mode="clip") == np.inf)
        edge, entered = edge[opened], np.repeat(frozen[new], deg)[opened]
        still = np.flatnonzero(frozen[indices[self.edge]] == np.inf)
        old = self.edge[still]
        self.left = np.concatenate([self.left[still] - (t_end - t_lo) / minutes[old],
                                    1.0 - (t_end - entered) / minutes[edge]])
        self.edge = np.concatenate([old, edge])


def check_coverage(wx: WeatherSeries, start: datetime, hours: float) -> None:
    """Raise CoverageError unless `wx` holds a sample for every hour of a
    fire burning `hours` from `start`."""
    # The series is gap-free, so a fire that starts inside it is covered
    # unless its last hour starts at the series end or later. That hour is
    # compared as an offset, bounded by the hours first: it may pass 9999.
    wx.at(start)
    if not hours <= len(wx) or (math.ceil(hours) - 1) * HOUR >= wx.end - start:
        raise CoverageError(
            f"a {hours:g} h fire from {start.isoformat()} outlasts the {len(wx)} h "
            f"weather series [{wx.start.isoformat()}, {wx.end.isoformat()})"
        )
