"""Hourly weather series: loading, validation, and the study's seasons.

A `WeatherSeries` stores the hourly record as columns: a start instant and
four float64 arrays (wind speed, wind direction, temperature, relative
humidity), one entry per hour. A fire reads a few of those hours, so a
series builds the `WeatherSample` of an hour only when `at` first asks for
it, and hands back that same object on every later call; `samples` is the
tuple of all of them, built on first use.

`load_weather` reads a file once, through `read_csv`, and checks its rows
in blocks: per block, one comparison of the timestamp column against the
hourly sequence of the series (only rows whose text differs from it, such
as unpadded forms, are parsed), one numpy float conversion of the four
value columns, and vectorised range masks. A block these column passes
reject is walked row by row, in memory, and the first row that breaks a
rule is named, by its line in the file, and why. Every earlier block has
passed, so that row is the file's first bad row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .csvfile import read_csv
from .errors import CoverageError, InvalidInputError

HOUR = timedelta(hours=1)
WEATHER_HEADER = ["timestamp_utc", "wind_speed_ms", "wind_dir_from_deg", "temp_c", "rh_pct"]
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%MZ"
# The default study's weather year and its seasonal ignition hour (UTC).
STUDY_YEAR = 2022
IGNITION_HOUR = 12
# The four seasons of a study year: each one's name and the month it starts.
SEASONS = (("winter", 1), ("spring", 4), ("summer", 7), ("fall", 10))
SEASON_LABELS = tuple(name for name, _ in SEASONS)
_EPOCH = date(1970, 1, 1)
# Rows of a weather file converted at a time: a few blocks per year, so
# the per-field strings of the whole year are never alive together.
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class WeatherSample:
    """One hourly observation. Wind direction is meteorological (FROM)."""

    timestamp: datetime
    wind_speed: float
    wind_dir_from: float
    temperature: float
    rel_humidity: float

    def __post_init__(self) -> None:
        if self.timestamp.tzinfo is None:
            raise InvalidInputError(f"timestamp {self.timestamp} is naive, expected UTC")
        for label, v in (("wind_speed", self.wind_speed),
                         ("wind_dir_from", self.wind_dir_from),
                         ("temperature", self.temperature),
                         ("rel_humidity", self.rel_humidity)):
            if not math.isfinite(v):
                raise InvalidInputError(f"non-finite {label} {v} at {self.timestamp}")
        if self.wind_speed < 0:
            raise InvalidInputError(f"negative wind speed {self.wind_speed} at {self.timestamp}")
        if not 0.0 <= self.wind_dir_from < 360.0:
            raise InvalidInputError(
                f"wind direction {self.wind_dir_from} outside [0, 360) at {self.timestamp}"
            )
        if not 0.0 <= self.rel_humidity <= 100.0:
            raise InvalidInputError(
                f"relative humidity {self.rel_humidity} outside [0, 100] at {self.timestamp}"
            )


def _first_invalid(values: np.ndarray) -> int:
    """Index of the first column of a (4, n) value array that breaks one of
    `WeatherSample`'s rules, or n when none does."""
    ws, wd, _, rh = values
    ok = (np.isfinite(values).all(axis=0) & (ws >= 0.0)
          & (wd >= 0.0) & (wd < 360.0) & (rh >= 0.0) & (rh <= 100.0))
    return values.shape[1] if ok.all() else int(np.argmin(ok))


def _step_fault(prev: datetime, cur: datetime) -> str:
    """Why `cur` cannot follow `prev` in an hourly series."""
    if cur <= prev:
        return f"timestamps not strictly increasing at {cur}"
    return f"gap of {cur - prev} before {cur}, expected exactly one hour"


def _hour_stamps(start: datetime, n: int) -> list[str]:
    """TIMESTAMP_FORMAT text of the n hours from `start`, zero-padded."""
    start = start.astimezone(timezone.utc)
    # Days since the epoch as integers: numpy's conversion of a Python
    # date object leaks a little memory on every call.
    first = (start.date() - _EPOCH).days
    days = np.arange(first, first + (start.hour + n + 23) // 24).astype("datetime64[D]")
    clock = [f"T{h:02d}:{start.minute:02d}Z" for h in range(24)]
    stamps = [day + c for day in np.datetime_as_string(days).tolist() for c in clock]
    return stamps[start.hour:start.hour + n]


class WeatherSeries:
    """Strictly hourly, gap-free weather: a start instant and four columns.

    Build one from validated samples, `WeatherSeries(samples)`, or from
    columns, `WeatherSeries.from_columns(start, ...)`. Columns are read-only.
    """

    def __init__(self, samples: Iterable[WeatherSample]) -> None:
        samples = tuple(samples)
        if not samples:
            raise InvalidInputError("weather series is empty")
        for prev, cur in zip(samples, samples[1:]):
            if cur.timestamp - prev.timestamp != HOUR:
                raise InvalidInputError(_step_fault(prev.timestamp, cur.timestamp))
        values = np.array([[s.wind_speed for s in samples], [s.wind_dir_from for s in samples],
                           [s.temperature for s in samples], [s.rel_humidity for s in samples]],
                          dtype=np.float64)
        self._set(samples[0].timestamp, values, samples)

    @classmethod
    def from_columns(cls, start: datetime, wind_speed, wind_dir_from, temperature,
                     rel_humidity) -> "WeatherSeries":
        """Series of len(wind_speed) hours from `start`; raises
        InvalidInputError for the first hour a `WeatherSample` would reject."""
        values = np.array([wind_speed, wind_dir_from, temperature, rel_humidity],
                          dtype=np.float64)
        if values.shape[1] == 0:
            raise InvalidInputError("weather series is empty")
        series = cls.__new__(cls)
        series._set(start, values, None)
        bad = _first_invalid(values)
        if bad < len(series):
            series._sample(bad)  # raises, with the sample's own message
        return series

    def _set(self, start: datetime, values: np.ndarray,
             samples: tuple[WeatherSample, ...] | None) -> None:
        if start.tzinfo is None:
            raise InvalidInputError(f"timestamp {start} is naive, expected UTC")
        try:
            self.end = start + values.shape[1] * HOUR  # first instant after the last hour
        except OverflowError:
            raise InvalidInputError(
                f"weather series from {start.isoformat()} ends after year 9999") from None
        values.setflags(write=False)
        self.start = start
        self._values = values  # (4, hours), the four columns below as rows
        self.wind_speed, self.wind_dir_from, self.temperature, self.rel_humidity = values
        self._memo: dict[int, WeatherSample] = dict(enumerate(samples or ()))
        self._samples = samples

    def _sample(self, i: int) -> WeatherSample:
        s = self._memo.get(i)
        if s is None:
            s = self._memo[i] = WeatherSample(
                self.start + i * HOUR,
                float(self.wind_speed[i]),
                float(self.wind_dir_from[i]),
                float(self.temperature[i]),
                float(self.rel_humidity[i]),
            )
        return s

    @property
    def samples(self) -> tuple[WeatherSample, ...]:
        if self._samples is None:
            self._samples = tuple(self._sample(i) for i in range(len(self)))
        return self._samples

    def __len__(self) -> int:
        return self.wind_speed.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeatherSeries):
            return NotImplemented
        return self.start == other.start and np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        return f"WeatherSeries(start={self.start.isoformat()}, hours={len(self)})"

    def at(self, instant: datetime) -> WeatherSample:
        """Sample whose hour contains the instant."""
        if instant.tzinfo is None:
            raise InvalidInputError(f"instant {instant} is naive, expected UTC")
        offset = instant - self.start
        idx = math.floor(offset / HOUR)
        if not 0 <= idx < len(self):
            raise CoverageError(
                f"instant {instant.isoformat()} outside series coverage "
                f"[{self.start.isoformat()}, {self.end.isoformat()})"
            )
        return self._sample(idx)


def season_starts(year: int = STUDY_YEAR, hour: int = IGNITION_HOUR) -> tuple[datetime, ...]:
    """Seasonal ignition instants: day 1 of each SEASONS month at the given hour UTC."""
    if not 0 <= hour <= 23:
        raise InvalidInputError(f"ignition hour {hour} outside [0, 23]")
    return tuple(datetime(year, month, 1, hour, 0, tzinfo=timezone.utc) for _, month in SEASONS)


def season_labels(n: int) -> tuple[str, ...]:
    """Names of n seasons: SEASON_LABELS for the four of SEASONS, else
    season0 ... season{n-1}."""
    if n == len(SEASONS):
        return SEASON_LABELS
    return tuple(f"season{i}" for i in range(n))


def parse_timestamp(text: str) -> datetime:
    """UTC instant of a TIMESTAMP_FORMAT string; the accepted inputs and
    the error messages are strptime's."""
    return datetime.strptime(text, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


def _walk(path: Path, block: list[tuple[int, list[str]]], prev: datetime | None) -> np.ndarray:
    """The (4, n) values of a block of rows checked one row at a time, the
    first being the hour after `prev` (None for the file's first row).
    Raises for the first bad row, named by its line in the file and by the
    first rule it breaks: its timestamp, its one-hour step, its values."""
    values = []
    for line, fields in block:
        try:
            ts = parse_timestamp(fields[0].strip())
        except ValueError as exc:
            raise InvalidInputError(f"{path}: row {line}: bad timestamp: {exc}") from exc
        if prev is not None and ts - prev != HOUR:
            raise InvalidInputError(f"{path}: row {line}: {_step_fault(prev, ts)}")
        try:
            s = WeatherSample(ts, *map(float, fields[1:]))
        except (ValueError, InvalidInputError) as exc:
            raise InvalidInputError(f"{path}: row {line}: {exc}") from exc
        values.append((s.wind_speed, s.wind_dir_from, s.temperature, s.rel_humidity))
        prev = ts
    return np.array(values, dtype=np.float64).reshape(-1, 4).T


def _columns(block: list[tuple[int, list[str]]], start: datetime | None, done: int) -> np.ndarray:
    """The (4, n) values of a block of rows checked in column passes: the
    rows must be hours `done` ... `done + n - 1` of the series from `start`
    (from the block's first row when `start` is None), and their values
    must pass `WeatherSample`'s rules. Raises a bare ValueError or
    OverflowError, naming no row, if any row breaks a rule."""
    stamps, *columns = zip(*(fields for _, fields in block))
    n = len(stamps)
    if start is None:
        start = parse_timestamp(stamps[0].strip())
    # Text equal to the hourly sequence from `start` is that hour; any
    # other text (an unpadded form, say) must still parse to it.
    expected = _hour_stamps(start + done * HOUR, n)
    for i in np.flatnonzero(np.fromiter(map(str.__ne__, stamps, expected), bool, n)).tolist():
        if parse_timestamp(stamps[i].strip()) - start != (done + i) * HOUR:
            raise ValueError("not hourly")
    values = np.array(columns, dtype=np.float64)
    if _first_invalid(values) < n:
        raise ValueError("invalid value")
    return values


def load_weather(path: str | Path) -> WeatherSeries:
    """Read the hourly weather CSV (see WEATHER_HEADER for columns).

    The file is read once, by `read_csv`, and checked in blocks of
    `_BLOCK_ROWS` rows: `_columns` accepts a good block, and a block it
    rejects is walked row by row by `_walk`, which names its first bad
    row. Every earlier block has passed, so that row is the file's first.
    """
    path = Path(path)
    header, rows = read_csv(path)
    if header != WEATHER_HEADER:
        raise InvalidInputError(f"{path}: expected header {','.join(WEATHER_HEADER)}")
    start, parts, done = None, [], 0
    while True:
        prev = None if start is None else start + (done - 1) * HOUR
        block = []
        try:
            for row in islice(rows, _BLOCK_ROWS):
                block.append(row)
        except InvalidInputError:
            # read_csv refused a row (a ragged one): a bad row before it comes first.
            _walk(path, block, prev)
            raise
        if not block:
            break
        try:
            values = _columns(block, start, done)
        except (ValueError, OverflowError):
            values = _walk(path, block, prev)
        if start is None:
            start = parse_timestamp(block[0][1][0].strip())
        parts.append(values)
        done += len(block)
    try:
        return WeatherSeries.from_columns(start, *np.concatenate([np.empty((4, 0)), *parts], axis=1))
    except InvalidInputError as exc:  # no rows, or an end past year 9999
        raise InvalidInputError(f"{path}: {exc}") from None


def write_weather(s: WeatherSeries, path: str | Path) -> None:
    rows = [",".join(WEATHER_HEADER)]
    rows.extend(f"{ts},{ws!r},{wd!r},{t!r},{rh!r}"
                for ts, ws, wd, t, rh in zip(_hour_stamps(s.start, len(s)), *s._values.tolist()))
    Path(path).write_text("\n".join(rows) + "\n")
