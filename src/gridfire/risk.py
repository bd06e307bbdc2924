"""Financial risk metrics: burned-environment and burned-line losses.

For each line j, `rank_lines` takes the per-season means over its I
ignition scenarios of burned acres and of damaged line miles (the full
length of every line whose corridor the fire reached; `network.Corridors`
decides which). It costs them as the environmental loss (acres times cost
per acre) and the line reconstruction loss (miles times cost per mile),
averages each over the seasons, sums the two, and normalizes the total by
the worst line to give the risk metric M in [0, 1]. This module holds only
that loss math: it reads no raster and no network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvalidInputError


@dataclass(frozen=True)
class CostParams:
    """Unit damage costs: dollars per burned acre and per line mile."""

    cbe: float = 20_000.0
    cbl: float = 200_000.0

    def __post_init__(self) -> None:
        if not self.cbe > 0:
            raise InvalidInputError(f"cbe must be positive, got {self.cbe}")
        if not self.cbl > 0:
            raise InvalidInputError(f"cbl must be positive, got {self.cbl}")


@dataclass(frozen=True)
class LineRisk:
    """Aggregated loss figures and the normalized metric for one line."""

    line_id: int
    lbe: float
    lbl: float
    wfl: float
    metric: float
    season_acres: tuple[float, ...]
    season_miles: tuple[float, ...]


def seasonal_average(values: Sequence[float]) -> float:
    """Arithmetic mean across seasons."""
    if len(values) == 0:
        raise InvalidInputError("no seasonal values to average")
    return sum(values) / len(values)


def wfl(lbe_dollars: float, lbl_dollars: float) -> float:
    """Total wildfire financial loss for a line."""
    if lbe_dollars < 0 or lbl_dollars < 0:
        raise InvalidInputError("loss components cannot be negative")
    return lbe_dollars + lbl_dollars


def risk_metric(wfl_by_line: Mapping[int, float]) -> dict[int, float]:
    """Normalize per-line losses by the worst line; the argmax gets 1."""
    if not wfl_by_line:
        raise InvalidInputError("no lines to rank")
    for line, v in wfl_by_line.items():
        if v < 0:
            raise InvalidInputError(f"line {line} has negative loss {v}")
    top = max(wfl_by_line.values())
    if top <= 0:
        raise InvalidInputError("every line has zero loss; the risk metric is undefined")
    return {line: v / top for line, v in wfl_by_line.items()}


def rank_lines(
    season_acres: Mapping[int, Sequence[float]],
    season_miles: Mapping[int, Sequence[float]],
    costs: CostParams,
) -> list[LineRisk]:
    """Build per-line risk records from per-season means, sorted by metric.

    season_acres[j] and season_miles[j] hold, for line j, the per-season
    mean burned acres and mean affected line miles (already averaged over
    ignitions); both tables cover the same lines, and every row the same
    number of seasons. Sorting is by metric descending, then line id.
    """
    if set(season_acres) != set(season_miles):
        raise InvalidInputError("acre and mile tables cover different line sets")
    if len({len(v) for v in (*season_acres.values(), *season_miles.values())}) > 1:
        raise InvalidInputError("acre and mile tables hold different numbers of seasons")
    lbe_by = {j: costs.cbe * seasonal_average(v) for j, v in season_acres.items()}
    lbl_by = {j: costs.cbl * seasonal_average(v) for j, v in season_miles.items()}
    wfl_by = {j: wfl(lbe_by[j], lbl_by[j]) for j in lbe_by}
    for j, total in wfl_by.items():
        if not math.isfinite(total):
            raise InvalidInputError(
                f"line {j}: loss lbe {lbe_by[j]:g} + lbl {lbl_by[j]:g} is not finite; "
                "costs.cbe_per_acre and costs.cbl_per_mile are too large for its acres and miles"
            )
    metric = risk_metric(wfl_by)
    records = [
        LineRisk(
            line_id=j,
            lbe=lbe_by[j],
            lbl=lbl_by[j],
            wfl=wfl_by[j],
            metric=metric[j],
            season_acres=tuple(season_acres[j]),
            season_miles=tuple(season_miles[j]),
        )
        for j in season_acres
    ]
    records.sort(key=lambda rec: (-rec.metric, rec.line_id))
    return records
