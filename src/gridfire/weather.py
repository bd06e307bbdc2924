"""Hourly weather series: loading, validation, and season start instants.

A `WeatherSeries` stores the hourly record as columns: a start instant and
four float64 arrays (wind speed, wind direction, temperature, relative
humidity), one entry per hour. A fire reads a few of those hours, so a
series builds the `WeatherSample` of an hour only when `at` first asks for
it, and hands back that same object on every later call; `samples` is the
tuple of all of them, built on first use.

`load_weather` checks a file in column passes over blocks of rows: per
block, one numpy float conversion of the four value columns, vectorised
range masks, and one comparison of the timestamp column against the hourly
sequence that starts at row 0 (only rows whose text differs from it, such
as unpadded forms, are parsed). These passes only decide whether the whole
file is good. A file they reject is read again row by row, one
`WeatherSample` per row, and that reading alone decides which row is
named, by its line in the file, and why.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import filterfalse, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .csvfile import blank, read_csv
from .errors import CoverageError, InvalidInputError, InvalidSampleError, MalformedSeriesError

HOUR = timedelta(hours=1)
WEATHER_HEADER = ["timestamp_utc", "wind_speed_ms", "wind_dir_from_deg", "temp_c", "rh_pct"]
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%MZ"
# The default study's weather year and its seasonal ignition hour (UTC).
STUDY_YEAR = 2022
IGNITION_HOUR = 12
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
            raise InvalidSampleError(f"timestamp {self.timestamp} is naive, expected UTC")
        for label, v in (("wind_speed", self.wind_speed),
                         ("wind_dir_from", self.wind_dir_from),
                         ("temperature", self.temperature),
                         ("rel_humidity", self.rel_humidity)):
            if not math.isfinite(v):
                raise InvalidSampleError(f"non-finite {label} {v} at {self.timestamp}")
        if self.wind_speed < 0:
            raise InvalidSampleError(f"negative wind speed {self.wind_speed} at {self.timestamp}")
        if not 0.0 <= self.wind_dir_from < 360.0:
            raise InvalidSampleError(
                f"wind direction {self.wind_dir_from} outside [0, 360) at {self.timestamp}"
            )
        if not 0.0 <= self.rel_humidity <= 100.0:
            raise InvalidSampleError(
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
            raise MalformedSeriesError("weather series is empty")
        for prev, cur in zip(samples, samples[1:]):
            if cur.timestamp - prev.timestamp != HOUR:
                raise MalformedSeriesError(_step_fault(prev.timestamp, cur.timestamp))
        values = np.array([[s.wind_speed for s in samples], [s.wind_dir_from for s in samples],
                           [s.temperature for s in samples], [s.rel_humidity for s in samples]],
                          dtype=np.float64)
        self._set(samples[0].timestamp, values, samples)

    @classmethod
    def from_columns(cls, start: datetime, wind_speed, wind_dir_from, temperature,
                     rel_humidity) -> "WeatherSeries":
        """Series of len(wind_speed) hours from `start`; raises
        InvalidSampleError for the first hour a `WeatherSample` would reject."""
        values = np.array([wind_speed, wind_dir_from, temperature, rel_humidity],
                          dtype=np.float64)
        if values.shape[1] == 0:
            raise MalformedSeriesError("weather series is empty")
        series = cls.__new__(cls)
        series._set(start, values, None)
        bad = _first_invalid(values)
        if bad < len(series):
            series._sample(bad)  # raises, with the sample's own message
        return series

    def _set(self, start: datetime, values: np.ndarray,
             samples: tuple[WeatherSample, ...] | None) -> None:
        if start.tzinfo is None:
            raise InvalidSampleError(f"timestamp {start} is naive, expected UTC")
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

    @property
    def end(self) -> datetime:
        """First instant after the last sample's hour."""
        return self.start + len(self) * HOUR

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
    """Seasonal ignition instants: Jan 1, Apr 1, Jul 1, Oct 1 at the given hour UTC."""
    if not 0 <= hour <= 23:
        raise InvalidInputError(f"ignition hour {hour} outside [0, 23]")
    return tuple(
        datetime(year, month, 1, hour, 0, tzinfo=timezone.utc) for month in (1, 4, 7, 10)
    )


def parse_timestamp(text: str) -> datetime:
    """UTC instant of a TIMESTAMP_FORMAT string; the accepted inputs and
    the error messages are strptime's."""
    return datetime.strptime(text, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


def _check_columns(text: str) -> tuple[datetime, np.ndarray]:
    """The series start and the (4, hours) values of a weather file's text,
    checked in column passes over blocks of rows; raises a bare ValueError,
    naming no row, if the file breaks any rule."""
    rows = filterfalse(blank, csv.reader(io.StringIO(text)))
    if [f.strip() for f in next(rows, ())] != WEATHER_HEADER:
        raise ValueError("bad header")
    start, parts, done = None, [], 0
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        n = len(block)
        if any(len(r) != len(WEATHER_HEADER) for r in block):
            raise ValueError("ragged row")
        values = np.array(list(zip(*block))[1:], dtype=np.float64)
        if _first_invalid(values) < n:
            raise ValueError("invalid value")
        if start is None:
            start = parse_timestamp(block[0][0].strip())
        # Text equal to the hourly sequence from row 0 is that hour; any
        # other text (an unpadded form, say) must still parse to it.
        expected = _hour_stamps(start + done * HOUR, n)
        differ = np.fromiter(map(str.__ne__, map(itemgetter(0), block), expected), bool, n)
        for i in np.flatnonzero(differ).tolist():
            if parse_timestamp(block[i][0].strip()) - start != (done + i) * HOUR:
                raise ValueError("not hourly")
        parts.append(values)
        done += n
    if not parts:
        raise ValueError("no rows")
    return start, np.concatenate(parts, axis=1)


def _load_rows(path: Path) -> WeatherSeries:
    """The series of a weather file read row by row, one `WeatherSample`
    per row; raises for the first bad row, named by its line in the file.

    A row is checked for its field count, then its timestamp, then its
    one-hour step from the row before, then its values: a row that breaks
    several rules is named for the first of them.
    """
    header, rows = read_csv(path, InvalidSampleError)
    if header != WEATHER_HEADER:
        raise InvalidSampleError(f"{path}: expected header {','.join(WEATHER_HEADER)}")
    samples: list[WeatherSample] = []
    for line, fields in rows:
        try:
            ts = parse_timestamp(fields[0].strip())
        except ValueError as exc:
            raise InvalidSampleError(f"{path}: row {line}: bad timestamp: {exc}") from exc
        if samples and ts - samples[-1].timestamp != HOUR:
            fault = _step_fault(samples[-1].timestamp, ts)
            raise MalformedSeriesError(f"{path}: row {line}: {fault}")
        try:
            samples.append(WeatherSample(ts, *map(float, fields[1:])))
        except (ValueError, InvalidSampleError) as exc:
            raise InvalidSampleError(f"{path}: row {line}: {exc}") from exc
    if not samples:
        raise MalformedSeriesError(f"{path}: weather series is empty")
    return WeatherSeries(samples)


def load_weather(path: str | Path) -> WeatherSeries:
    """Read the hourly weather CSV (see WEATHER_HEADER for columns).

    The column passes of `_check_columns` accept a good file; a file they
    reject is read again by `_load_rows`, which names its first bad row.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read weather file {path}: {exc}") from exc
    try:
        start, values = _check_columns(text)
    except (ValueError, OverflowError):
        return _load_rows(path)
    return WeatherSeries.from_columns(start, *values)


def write_weather(s: WeatherSeries, path: str | Path) -> None:
    rows = [",".join(WEATHER_HEADER)]
    rows.extend(f"{ts},{ws!r},{wd!r},{t!r},{rh!r}"
                for ts, ws, wd, t, rh in zip(_hour_stamps(s.start, len(s)), *s._values.tolist()))
    Path(path).write_text("\n".join(rows) + "\n")
