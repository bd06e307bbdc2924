"""Hourly weather series: validation, lookup, file round-trip."""

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfire.errors import CoverageError, InvalidSampleError, MalformedSeriesError
from gridfire.weather import (
    HOUR,
    TIMESTAMP_FORMAT,
    WeatherSample,
    WeatherSeries,
    load_weather,
    season_starts,
    write_weather,
)

T0 = datetime(2022, 1, 1, 0, 0, tzinfo=timezone.utc)


def mk_series(hours, start=T0, ws=3.0):
    return WeatherSeries(tuple(
        WeatherSample(start + h * HOUR, ws, 225.0, 15.0, 40.0) for h in range(hours)
    ))


def test_sample_validation():
    with pytest.raises(InvalidSampleError):
        WeatherSample(datetime(2022, 1, 1, 0, 0), 3.0, 225.0, 15.0, 40.0)  # naive
    with pytest.raises(InvalidSampleError):
        WeatherSample(T0, -0.1, 225.0, 15.0, 40.0)
    with pytest.raises(InvalidSampleError):
        WeatherSample(T0, 3.0, 360.0, 15.0, 40.0)
    with pytest.raises(InvalidSampleError):
        WeatherSample(T0, 3.0, 225.0, 15.0, 101.0)
    with pytest.raises(InvalidSampleError):
        WeatherSample(T0, float("inf"), 225.0, 15.0, 40.0)


def test_series_requires_exact_hourly_grid():
    good = mk_series(3)
    assert len(good) == 3
    with pytest.raises(MalformedSeriesError):
        WeatherSeries(())
    with pytest.raises(MalformedSeriesError):
        WeatherSeries((good.samples[0], good.samples[2]))  # gap
    with pytest.raises(MalformedSeriesError):
        WeatherSeries((good.samples[1], good.samples[0]))  # unsorted
    with pytest.raises(MalformedSeriesError):
        WeatherSeries((good.samples[0], good.samples[0]))  # duplicate


def test_at_floor_semantics():
    s = mk_series(4)
    assert s.at(T0) is s.samples[0]
    assert s.at(T0 + timedelta(minutes=59)) is s.samples[0]
    assert s.at(T0 + timedelta(hours=3, minutes=59)) is s.samples[3]
    with pytest.raises(CoverageError):
        s.at(T0 + timedelta(hours=4))
    with pytest.raises(CoverageError):
        s.at(T0 - timedelta(minutes=1))


def test_season_starts():
    seasons = season_starts(2022)
    assert [d.month for d in seasons] == [1, 4, 7, 10]
    assert all(d.year == 2022 and d.day == 1 and d.hour == 12 for d in seasons)
    assert all(d.tzinfo is timezone.utc for d in seasons)
    assert season_starts(2022, hour=6)[0].hour == 6


def test_weather_round_trip(tmp_path):
    s = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, 0.5 * h, (10.0 * h) % 360, 15.0 - h, 40.0 + h)
        for h in range(6)
    ))
    path = tmp_path / "wx.csv"
    write_weather(s, path)
    back = load_weather(path)
    assert back == s


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "wx.csv"
    path.write_text("time,wind\n2022-01-01T00:00Z,3\n")
    with pytest.raises(InvalidSampleError, match="header"):
        load_weather(path)


def test_load_names_bad_row(tmp_path):
    path = tmp_path / "wx.csv"
    path.write_text(
        "timestamp_utc,wind_speed_ms,wind_dir_from_deg,temp_c,rh_pct\n"
        "2022-01-01T00:00Z,3.0,225.0,15.0,40.0\n"
        "2022-01-01T01:00Z,breezy,225.0,15.0,40.0\n"
    )
    with pytest.raises(InvalidSampleError, match="row 3"):
        load_weather(path)


def write_rows(path, *timestamps):
    path.write_text("timestamp_utc,wind_speed_ms,wind_dir_from_deg,temp_c,rh_pct\n" + "".join(
        f"{ts},3.0,225.0,15.0,40.0\n" for ts in timestamps
    ))


def test_load_accepts_unpadded_timestamps(tmp_path):
    path = tmp_path / "wx.csv"
    write_rows(path, "2022-1-1T0:0Z", "2022-01-01T01:00Z")
    assert [s.timestamp for s in load_weather(path).samples] == [T0, T0 + HOUR]


@pytest.mark.parametrize("text", ["2022-02-30T00:00Z", "2022-01-01T24:00Z"])
def test_load_names_impossible_timestamp_as_strptime_does(tmp_path, text):
    with pytest.raises(ValueError) as want:
        datetime.strptime(text, TIMESTAMP_FORMAT)
    path = tmp_path / "wx.csv"
    write_rows(path, text)
    with pytest.raises(InvalidSampleError, match="row 2") as got:
        load_weather(path)
    assert str(want.value) in str(got.value)


@given(
    hours=st.integers(1, 40),
    ws=st.floats(0.0, 40.0),
    wd=st.floats(0.0, 359.9),
    rh=st.floats(0.0, 100.0),
)
def test_round_trip_property(tmp_path_factory, hours, ws, wd, rh):
    s = WeatherSeries(tuple(
        WeatherSample(T0 + h * HOUR, ws, wd, 12.0, rh) for h in range(hours)
    ))
    path = tmp_path_factory.mktemp("wx") / "wx.csv"
    write_weather(s, path)
    assert load_weather(path) == s
