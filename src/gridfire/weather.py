"""Hourly weather series: loading, validation, and season start instants.

A `WeatherSeries` stores the hourly record as columns: a start instant and
four float64 arrays (wind speed, wind direction, temperature, relative
humidity), one entry per hour. A fire reads a few of those hours, so a
series builds the `WeatherSample` of an hour only when `at` first asks for
it, and hands back that same object on every later call; `samples` is the
tuple of all of them, built on first use.

`load_weather` validates the whole file in column passes over blocks of
rows: per block, one numpy float conversion of the four value columns,
vectorised range masks, and one comparison of the timestamp column against
the hourly sequence that starts at row 0. Only the rows whose text differs
from that sequence (unpadded forms, impossible dates, gaps, repeats) go
through `parse_timestamp`. A bad row anywhere in the file is rejected with
its row number.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

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
# The zero-padded form `write_weather` writes, parsed without strptime.
_CANONICAL_TIMESTAMP = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2})Z")


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
    """UTC instant of a TIMESTAMP_FORMAT string.

    The canonical form takes one regex match; anything else, and a
    canonical string naming no real instant (a February 30th, hour 24),
    goes to strptime, so the accepted inputs and the error messages are
    strptime's.
    """
    m = _CANONICAL_TIMESTAMP.fullmatch(text)
    if m is not None:
        try:
            return datetime(*map(int, m.groups()), tzinfo=timezone.utc)
        except ValueError:
            pass
    return datetime.strptime(text, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


def _row_fault(path: Path, i: int, message: object, kind=InvalidSampleError) -> Exception:
    """The error for data row i, named by its file line (blank lines count)."""
    reader = csv.reader(io.StringIO(path.read_text()))
    line = next(islice((reader.line_num for r in reader if r), i + 1, None))
    return kind(f"{path}: row {line}: {message}")


def _read_block(
    path: Path, block: list[list[str]], first: int, start: datetime | None
) -> tuple[datetime, np.ndarray]:
    """The series start and the (4, len(block)) values of the data rows
    first, first + 1, ... of a weather file, validated; raises for the first
    bad row, checking a row's timestamp before its values. `start` is None
    for the block that holds row 0."""
    # `stop` is the first row whose fields cannot all be read as numbers;
    # the rows before it become the four value columns.
    width = len(WEATHER_HEADER)
    n = len(block)
    wrong = np.flatnonzero(np.fromiter(map(len, block), np.int64, n) != width)
    stop = int(wrong[0]) if wrong.size else n
    stop_fault = None
    if stop < n:
        stop_fault = _row_fault(path, first + stop,
                                f"expected {width} fields, got {len(block[stop])}")
    columns = list(zip(*block[:stop]))[1:] if stop else [()] * (width - 1)
    try:
        values = np.array(columns, dtype=np.float64)
    except ValueError:  # numpy names no row: find the first one float() refuses
        for i, r in enumerate(block[:stop]):
            try:
                for v in r[1:]:
                    float(v)
            except ValueError as exc:
                stop, stop_fault = i, _row_fault(path, first + i, exc)
                break
        values = np.array([c[:stop] for c in columns], dtype=np.float64)
    bad = _first_invalid(values)

    # Timestamps of every row up to the first faulty one, that row included:
    # text equal to the hourly sequence from row 0 is that hour; any other
    # text is parsed and must still be one hour after the row before it.
    if start is None:
        try:
            start = parse_timestamp(block[0][0].strip())
        except ValueError as exc:
            raise _row_fault(path, 0, f"bad timestamp: {exc}") from exc
    checked = min(bad + 1, n)
    stamps = map(itemgetter(0), block[:checked])
    expected = _hour_stamps(start + first * HOUR, checked)
    differ = np.fromiter(map(str.__ne__, stamps, expected), bool, checked)
    for i in (first + np.flatnonzero(differ)).tolist():
        if i == 0:
            continue  # parsed above
        try:
            ts = parse_timestamp(block[i - first][0].strip())
        except ValueError as exc:
            raise _row_fault(path, i, f"bad timestamp: {exc}") from exc
        prev = start + (i - 1) * HOUR
        if ts - prev != HOUR:
            raise _row_fault(path, i, _step_fault(prev, ts), MalformedSeriesError)
    if bad < stop:
        try:
            WeatherSample(start + (first + bad) * HOUR, *values[:, bad].tolist())
        except InvalidSampleError as exc:
            raise _row_fault(path, first + bad, exc) from exc
    if stop_fault is not None:
        raise stop_fault
    return start, values


def load_weather(path: str | Path) -> WeatherSeries:
    """Read the hourly weather CSV (see WEATHER_HEADER for columns).

    The first bad row in the file is named by its line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read weather file {path}: {exc}") from exc
    rows = filter(None, csv.reader(io.StringIO(text)))
    header = next(rows, None)
    if header is None or [f.strip() for f in header] != WEATHER_HEADER:
        raise InvalidSampleError(f"{path}: expected header {','.join(WEATHER_HEADER)}")
    start, parts, done = None, [], 0
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        start, values = _read_block(path, block, done, start)
        parts.append(values)
        done += len(block)
    if not parts:
        raise MalformedSeriesError(f"{path}: weather series is empty")
    return WeatherSeries.from_columns(start, *np.concatenate(parts, axis=1))


def write_weather(s: WeatherSeries, path: str | Path) -> None:
    rows = [",".join(WEATHER_HEADER)]
    rows.extend(f"{ts},{ws!r},{wd!r},{t!r},{rh!r}"
                for ts, ws, wd, t, rh in zip(_hour_stamps(s.start, len(s)), *s._values.tolist()))
    Path(path).write_text("\n".join(rows) + "\n")
