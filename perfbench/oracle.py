"""Exact earliest fire arrival under hourly piecewise-constant weather.

An independent check of `gridfire.spread`: a plain-Python label-setting
search over the engine's public edge list (`SpreadEngine.edge_costs`),
read again for every weather hour. A fire entering an edge at minute t
crosses it at the speed of the hour it is in. When that hour ends part-way,
the edge keeps the share already crossed and finishes the rest at the next
hour's speed, so an edge entered at t_s and still open at the hour boundary
t_lo is left at t_lo + (1 - (t_lo - t_s) / c_old) * c_new. An edge that is
impassable in some hour (cost +inf) makes no progress during it.

With piecewise-constant speeds, leaving later never arrives earlier (the
FIFO property), so label setting gives the exact earliest arrival (Orda &
Rom 1990), the minimum-travel-time reading of fire growth (Finney 2002).
"""

from __future__ import annotations

import heapq
import math
from array import array
from datetime import timedelta
from typing import Callable, Sequence

import numpy as np

HOUR_MIN = 60.0

HourCosts = Callable[[int], Sequence[float]]


def edge_exit(t: float, k: int, hour_costs: HourCosts, n_hours: int) -> float:
    """Minute at which a fire entering edge k at minute t reaches its end."""
    h = int(t // HOUR_MIN)
    left = 1.0
    while h < n_hours:
        c = hour_costs(h)[k]
        end = (h + 1) * HOUR_MIN
        if c != math.inf:
            done = t + left * c
            if done <= end:
                return done
            left -= (end - t) / c
        t = end
        h += 1
    return math.inf


def fifo_arrival(
    indptr: Sequence[int],
    dst: Sequence[int],
    hour_costs: HourCosts,
    n_hours: int,
    source: int,
    horizon: float,
) -> list[float]:
    """Earliest arrival minute of every node from `source`, +inf past `horizon`.

    The graph is in compressed-row form: the edges leaving node u are
    k = indptr[u] .. indptr[u+1]-1, edge k ends at dst[k], and
    hour_costs(h)[k] is its crossing time in minutes under hour h's weather.
    """
    n = len(indptr) - 1
    arrival = [math.inf] * n
    arrival[source] = 0.0
    settled = bytearray(n)
    heap = [(0.0, source)]
    while heap:
        t, u = heapq.heappop(heap)
        if settled[u]:
            continue
        if t > horizon:
            break
        settled[u] = 1
        if t >= horizon:
            continue
        h = int(t // HOUR_MIN)
        costs = hour_costs(h)
        end = (h + 1) * HOUR_MIN
        for k in range(indptr[u], indptr[u + 1]):
            v = dst[k]
            if settled[v]:
                continue
            a = t + costs[k]
            if a > end:
                a = edge_exit(t, k, hour_costs, n_hours)
            if a < arrival[v]:
                arrival[v] = a
                heapq.heappush(heap, (a, v))
    return [a if a <= horizon else math.inf for a in arrival]


def engine_arrival(engine, spec, wx) -> np.ndarray:
    """Oracle arrival grid (minutes, +inf unburned) for one gridfire scenario.

    `engine` is a `gridfire.spread.SpreadEngine`, `spec` an `IgnitionSpec`
    and `wx` the `WeatherSeries`; only their public attributes are used.
    """
    land = engine.land
    nrows, ncols = land.nrows, land.ncols
    n = nrows * ncols
    horizon = spec.duration_hours * HOUR_MIN
    n_hours = math.ceil(spec.duration_hours)
    r, c = spec.cell.row, spec.cell.col
    if not land.burnable_mask()[r, c]:
        return np.full((nrows, ncols), np.inf)

    src, dst, _ = engine.edge_costs(wx.at(spec.start))
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    cache: dict[int, array] = {}

    def hour_costs(h: int) -> array:
        if h not in cache:
            minutes = engine.edge_costs(wx.at(spec.start + timedelta(hours=h)))[2]
            cache[h] = array("d", minutes[order].tobytes())
        return cache[h]

    arrival = fifo_arrival(indptr, dst[order].tolist(), hour_costs, n_hours, r * ncols + c, horizon)
    return np.array(arrival).reshape(nrows, ncols)


def arrival_mismatches(got: np.ndarray, want: np.ndarray, horizon: float, tol: float = 1e-6) -> int:
    """Cells whose arrival differs by more than `tol` minutes.

    A cell burned in one grid and not the other counts only when its finite
    arrival lies more than `tol` inside the horizon, so rounding at the
    horizon itself is not a mismatch.
    """
    both = np.isfinite(got) & np.isfinite(want)
    only = np.isfinite(got) ^ np.isfinite(want)
    diff = np.abs(got[both] - want[both]) > tol
    inside = np.where(np.isfinite(got), got, want)[only] < horizon - tol
    return int(np.count_nonzero(diff) + np.count_nonzero(inside))
