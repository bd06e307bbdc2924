"""Hourly weather series: loading, validation, and season start instants."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .errors import CoverageError, InvalidInputError, InvalidSampleError, MalformedSeriesError

HOUR = timedelta(hours=1)
WEATHER_HEADER = ["timestamp_utc", "wind_speed_ms", "wind_dir_from_deg", "temp_c", "rh_pct"]
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%MZ"
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


@dataclass(frozen=True)
class WeatherSeries:
    """Strictly hourly, gap-free sequence of samples."""

    samples: tuple[WeatherSample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise MalformedSeriesError("weather series is empty")
        for prev, cur in zip(self.samples, self.samples[1:]):
            if cur.timestamp <= prev.timestamp:
                raise MalformedSeriesError(
                    f"timestamps not strictly increasing at {cur.timestamp}"
                )
            if cur.timestamp - prev.timestamp != HOUR:
                raise MalformedSeriesError(
                    f"gap of {cur.timestamp - prev.timestamp} before {cur.timestamp}, "
                    "expected exactly one hour"
                )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def start(self) -> datetime:
        return self.samples[0].timestamp

    @property
    def end(self) -> datetime:
        """First instant after the last sample's hour."""
        return self.samples[-1].timestamp + HOUR

    def at(self, instant: datetime) -> WeatherSample:
        """Sample whose hour contains the instant."""
        if instant.tzinfo is None:
            raise InvalidInputError(f"instant {instant} is naive, expected UTC")
        offset = instant - self.start
        idx = math.floor(offset / HOUR)
        if not 0 <= idx < len(self.samples):
            raise CoverageError(
                f"instant {instant.isoformat()} outside series coverage "
                f"[{self.start.isoformat()}, {self.end.isoformat()})"
            )
        return self.samples[idx]


def season_starts(year: int, hour: int = 12) -> tuple[datetime, datetime, datetime, datetime]:
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


def load_weather(path: str | Path) -> WeatherSeries:
    """Read the hourly weather CSV (see WEATHER_HEADER for columns)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read weather file {path}: {exc}") from exc
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != WEATHER_HEADER:
        raise InvalidSampleError(f"{path}: expected header {','.join(WEATHER_HEADER)}")
    samples = []
    for i, row in enumerate(reader, start=2):
        try:
            ts = parse_timestamp(row["timestamp_utc"].strip())
        except (ValueError, AttributeError) as exc:
            raise InvalidSampleError(f"{path}: row {i}: bad timestamp: {exc}") from exc
        try:
            sample = WeatherSample(
                timestamp=ts,
                wind_speed=float(row["wind_speed_ms"]),
                wind_dir_from=float(row["wind_dir_from_deg"]),
                temperature=float(row["temp_c"]),
                rel_humidity=float(row["rh_pct"]),
            )
        except InvalidSampleError as exc:
            raise InvalidSampleError(f"{path}: row {i}: {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise InvalidSampleError(f"{path}: row {i}: {exc}") from exc
        samples.append(sample)
    return WeatherSeries(samples=tuple(samples))


def write_weather(s: WeatherSeries, path: str | Path) -> None:
    rows = [",".join(WEATHER_HEADER)]
    for smp in s.samples:
        ts = smp.timestamp.astimezone(timezone.utc).strftime(TIMESTAMP_FORMAT)
        rows.append(
            f"{ts},{smp.wind_speed!r},{smp.wind_dir_from!r},"
            f"{smp.temperature!r},{smp.rel_humidity!r}"
        )
    Path(path).write_text("\n".join(rows) + "\n")
