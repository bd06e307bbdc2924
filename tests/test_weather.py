"""Hourly weather series: validation, lookup, file round-trip."""

import csv
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfire import weather
from gridfire.errors import CoverageError, InvalidInputError
from gridfire.fixtures import study_weather
from gridfire.weather import (
    HOUR,
    TIMESTAMP_FORMAT,
    WEATHER_HEADER,
    WeatherSample,
    WeatherSeries,
    load_weather,
    parse_timestamp,
    season_starts,
    write_weather,
)

T0 = datetime(2022, 1, 1, 0, 0, tzinfo=timezone.utc)


def mk_series(hours, start=T0, ws=3.0):
    return WeatherSeries(tuple(
        WeatherSample(start + h * HOUR, ws, 225.0, 15.0, 40.0) for h in range(hours)
    ))


def test_sample_validation():
    with pytest.raises(InvalidInputError):
        WeatherSample(datetime(2022, 1, 1, 0, 0), 3.0, 225.0, 15.0, 40.0)  # naive
    with pytest.raises(InvalidInputError):
        WeatherSample(T0, -0.1, 225.0, 15.0, 40.0)
    with pytest.raises(InvalidInputError):
        WeatherSample(T0, 3.0, 360.0, 15.0, 40.0)
    with pytest.raises(InvalidInputError):
        WeatherSample(T0, 3.0, 225.0, 15.0, 101.0)
    with pytest.raises(InvalidInputError):
        WeatherSample(T0, float("inf"), 225.0, 15.0, 40.0)


def test_series_requires_exact_hourly_grid():
    good = mk_series(3)
    assert len(good) == 3
    with pytest.raises(InvalidInputError):
        WeatherSeries(())
    with pytest.raises(InvalidInputError):
        WeatherSeries((good.samples[0], good.samples[2]))  # gap
    with pytest.raises(InvalidInputError):
        WeatherSeries((good.samples[1], good.samples[0]))  # unsorted
    with pytest.raises(InvalidInputError):
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
    with pytest.raises(InvalidInputError, match="header"):
        load_weather(path)


def test_load_names_bad_row(tmp_path):
    path = tmp_path / "wx.csv"
    path.write_text(
        "timestamp_utc,wind_speed_ms,wind_dir_from_deg,temp_c,rh_pct\n"
        "2022-01-01T00:00Z,3.0,225.0,15.0,40.0\n"
        "2022-01-01T01:00Z,breezy,225.0,15.0,40.0\n"
    )
    with pytest.raises(InvalidInputError, match="row 3"):
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
    with pytest.raises(InvalidInputError, match="row 2") as got:
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


def test_series_from_columns_equals_series_from_samples():
    built = WeatherSeries.from_columns(T0, [3.0, 4.0], [225.0, 0.0], [15.0, 14.0], [40.0, 41.0])
    by_hand = WeatherSeries(samples=(WeatherSample(T0, 3.0, 225.0, 15.0, 40.0),
                                     WeatherSample(T0 + HOUR, 4.0, 0.0, 14.0, 41.0)))
    assert built == by_hand and len(built) == 2
    assert (built.start, built.end) == (T0, T0 + 2 * HOUR)
    assert built != mk_series(2)
    assert built.at(T0 + HOUR) == by_hand.samples[1]
    with pytest.raises(ValueError):
        built.wind_speed[0] = 1.0  # columns are read-only
    with pytest.raises(InvalidInputError, match="wind direction 360.0 outside .* 01:00"):
        WeatherSeries.from_columns(T0, [3.0, 4.0], [225.0, 360.0], [15.0, 14.0], [40.0, 41.0])
    with pytest.raises(InvalidInputError):
        WeatherSeries.from_columns(T0, [], [], [], [])


def test_samples_are_built_once_per_hour():
    s = WeatherSeries.from_columns(T0, [3.0] * 5, [225.0] * 5, [15.0] * 5, [40.0] * 5)
    first = s.at(T0 + timedelta(hours=2, minutes=30))
    assert s.at(T0 + 2 * HOUR) is first
    assert s.samples[2] is first
    assert s.samples is s.samples
    assert [x.timestamp for x in s.samples] == [T0 + h * HOUR for h in range(5)]


# ------------------------------------------------- whole-year validation


def stamp(h):
    return (T0 + h * HOUR).strftime(TIMESTAMP_FORMAT)


def row(h, values="3.0,225.0,15.0,40.0", at=None):
    return f"{stamp(h if at is None else at)},{values}"


# fault -> (row text for hour h, error type, message after "row N: ")
FAULTS = {
    "non-finite value": (lambda h: row(h, "3.0,225.0,inf,40.0"),
                         InvalidInputError, "non-finite temperature inf"),
    "negative wind": (lambda h: row(h, "-0.5,225.0,15.0,40.0"),
                      InvalidInputError, "negative wind speed -0.5"),
    "direction 360": (lambda h: row(h, "3.0,360,15.0,40.0"),
                      InvalidInputError, r"wind direction 360.0 outside \[0, 360\)"),
    "rh 101": (lambda h: row(h, "3.0,225.0,15.0,101"),
               InvalidInputError, r"relative humidity 101.0 outside \[0, 100\]"),
    "unparseable value": (lambda h: row(h, "3.0,225.0,warm,40.0"),
                          InvalidInputError, "could not convert string to float: 'warm'"),
    "missing field": (lambda h: row(h, "3.0,225.0,15.0"),
                      InvalidInputError, "expected 5 fields, got 4"),
    "bad timestamp": (lambda h: "2022-13-01T00:00Z,3.0,225.0,15.0,40.0",
                      InvalidInputError, "bad timestamp"),
    "gap": (lambda h: row(h, at=h + 1), InvalidInputError, "gap of 2:00:00 before"),
    "repeated hour": (lambda h: row(h, at=h - 1), InvalidInputError,
                      "timestamps not strictly increasing at"),
    "out-of-order hour": (lambda h: row(h, at=h - 2), InvalidInputError,
                          "timestamps not strictly increasing at"),
}


# Rows converted at a time: the file's default, and one that puts rows 45
# and 47 at the start and inside the last of several blocks.
BLOCKS = [weather._BLOCK_ROWS, 5]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("where", [2, 45, 47])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_load_rejects_each_rule_naming_the_row(tmp_path, monkeypatch, fault, where, block):
    monkeypatch.setattr(weather, "_BLOCK_ROWS", block)
    make, kind, message = FAULTS[fault]
    rows = [row(h) for h in range(48)]
    rows[where] = make(where)
    path = tmp_path / "wx.csv"
    path.write_text(",".join(WEATHER_HEADER) + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(kind, match=f"wx.csv: row {where + 2}: {message}"):
        load_weather(path)


@pytest.mark.parametrize("block", BLOCKS)
def test_load_names_the_first_of_several_bad_rows(tmp_path, monkeypatch, block):
    monkeypatch.setattr(weather, "_BLOCK_ROWS", block)
    rows = [row(h) for h in range(48)]
    rows[30] = row(30, "3.0,225.0,15.0")         # missing field
    rows[20] = row(20, "3.0,225.0,15.0,101.0")   # humidity
    rows[10] = row(10, "x,225.0,15.0,40.0")      # unparseable
    rows[5] = row(5, at=7)                       # gap
    path = tmp_path / "wx.csv"
    for named in (7, 12, 22, 32):
        path.write_text(",".join(WEATHER_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(InvalidInputError, match=f"row {named}:"):
            load_weather(path)
        rows[named - 2] = row(named - 2)
    path.write_text(",".join(WEATHER_HEADER) + "\n" + "\n".join(rows) + "\n")
    assert len(load_weather(path)) == 48


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("where,blanks_before", [(1, {1}), (45, {1, 20, 45})])
@pytest.mark.parametrize("fault", ["rh 101", "gap", "missing field"])
def test_load_names_the_file_line_after_blank_lines(tmp_path, monkeypatch, fault, where,
                                                    blanks_before, block):
    """Blank lines are skipped but counted: a bad row is named by its line
    in the file, as an editor shows it."""
    monkeypatch.setattr(weather, "_BLOCK_ROWS", block)
    make, kind, message = FAULTS[fault]
    lines = [",".join(WEATHER_HEADER)]
    for h in range(48):
        if h in blanks_before:
            lines.append("")
        lines.append(make(h) if h == where else row(h))
    path = tmp_path / "wx.csv"
    path.write_text("\n".join(lines) + "\n")
    line = where + 2 + len(blanks_before)
    assert lines[line - 1] == make(where)
    with pytest.raises(kind, match=f"wx.csv: row {line}: {message}"):
        load_weather(path)


def never(path, block, prev):
    raise AssertionError(f"the column passes rejected rows {block[0][0]}-{block[-1][0]} of {path}")


def reject(block, start, done):
    raise ValueError("rejected")


@pytest.mark.parametrize("block", BLOCKS)
def test_column_passes_skip_blank_lines_as_read_csv_does(tmp_path, monkeypatch, block):
    """A line that is empty or spaces only is blank to the column passes, as
    to `read_csv`, so a good file with such lines passes them."""
    monkeypatch.setattr(weather, "_BLOCK_ROWS", block)
    monkeypatch.setattr(weather, "_walk", never)
    lines = ["  ", ",".join(WEATHER_HEADER)]
    for h in range(48):
        lines += [row(h)] + {3: [""], 20: ["   "], 47: ["", "  "]}.get(h, [])
    path = tmp_path / "wx.csv"
    path.write_text("\n".join(lines) + "\n")
    assert load_weather(path) == mk_series(48)


def test_load_checks_a_bad_rows_timestamp_before_its_values(tmp_path):
    rows = [row(h) for h in range(4)]
    rows[2] = row(2, "-1.0,225.0,15.0,40.0", at=5)
    path = tmp_path / "wx.csv"
    path.write_text(",".join(WEATHER_HEADER) + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(InvalidInputError, match="row 4: gap"):
        load_weather(path)


def test_load_names_a_rows_field_count_before_its_timestamp(tmp_path):
    rows = [row(h) for h in range(4)]
    rows[2] = "2022-13-01T00:00Z,3.0,225.0,15.0"
    path = tmp_path / "wx.csv"
    path.write_text(",".join(WEATHER_HEADER) + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(InvalidInputError, match="row 4: expected 5 fields, got 4"):
        load_weather(path)


def test_load_rejects_an_empty_year(tmp_path):
    path = tmp_path / "wx.csv"
    path.write_text(",".join(WEATHER_HEADER) + "\n")
    with pytest.raises(InvalidInputError, match="empty"):
        load_weather(path)


def reference_load(path):
    """Row-by-row reading of a weather file: one WeatherSample per row."""
    rows = [r for r in csv.reader(path.read_text().splitlines()) if r]
    return WeatherSeries(tuple(
        WeatherSample(parse_timestamp(r[0].strip()), *map(float, r[1:])) for r in rows[1:]
    ))


def reference_error(path):
    """(type, message) of the error that reading a weather file row by row
    raises for its first bad row, or None when every row is good. Blank
    lines (empty or spaces only) are skipped but counted; a row is checked
    for its field count, then its timestamp, then its one-hour step from
    the row before, then its values."""
    reader = csv.reader(path.read_text().splitlines())
    rows = [(reader.line_num, r) for r in reader if "".join(r).strip()]
    prev = None
    for line, r in rows[1:]:
        where = f"{path}: row {line}: "
        if len(r) != len(WEATHER_HEADER):
            return InvalidInputError, where + f"expected {len(WEATHER_HEADER)} fields, got {len(r)}"
        try:
            ts = datetime.strptime(r[0].strip(), TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
        except ValueError as exc:
            return InvalidInputError, where + f"bad timestamp: {exc}"
        if prev is not None and ts <= prev:
            return InvalidInputError, where + f"timestamps not strictly increasing at {ts}"
        if prev is not None and ts - prev != HOUR:
            return (InvalidInputError,
                    where + f"gap of {ts - prev} before {ts}, expected exactly one hour")
        try:
            WeatherSample(ts, *map(float, r[1:]))
        except (ValueError, InvalidInputError) as exc:
            return InvalidInputError, where + str(exc)
        prev = ts
    return None


@given(
    faults=st.lists(st.tuples(st.integers(0, 29), st.sampled_from(sorted(FAULTS))),
                    min_size=1, max_size=3, unique_by=lambda f: f[0]),
    blanks=st.lists(st.tuples(st.integers(0, 31), st.sampled_from(["", "  "])), max_size=6),
    block=st.integers(1, 7),
)
def test_load_names_the_first_bad_row_as_a_row_by_row_reading_does(tmp_path_factory, faults,
                                                                   blanks, block):
    """Whatever the block size, the error names the file line of the first
    faulty row, with that row's first rule: the block that holds it is the
    first block to fail, and a ragged row is raised only after the rows
    before it in its block are checked."""
    rows = [row(h) for h in range(30)]
    for h, fault in faults:
        rows[h] = FAULTS[fault][0](h)
    lines = [",".join(WEATHER_HEADER), *rows]
    for at, text in sorted(blanks, reverse=True):
        lines.insert(at, text)
    path = tmp_path_factory.mktemp("wx") / "wx.csv"
    path.write_text("\n".join(lines) + "\n")

    want = reference_error(path)
    first, fault = min(faults)
    if first > 0:  # a step fault in row 0 only moves the series start
        line = first + 2 + sum(at <= first + 1 for at, _ in blanks)
        assert want[0] is FAULTS[fault][1]
        assert re.fullmatch(f"{re.escape(str(path))}: row {line}: {FAULTS[fault][2]}.*", want[1])
    with patch.object(weather, "_BLOCK_ROWS", block):
        if want is None:
            assert load_weather(path) == reference_load(path)
        else:
            with pytest.raises(want[0]) as got:
                load_weather(path)
            assert str(got.value) == want[1]


def test_load_reads_a_bad_file_from_disk_once(tmp_path, monkeypatch):
    rows = [row(h) for h in range(48)]
    rows[45] = row(45, "3.0,225.0,15.0,101")
    path = tmp_path / "wx.csv"
    path.write_text(",".join(WEATHER_HEADER) + "\n" + "\n".join(rows) + "\n")
    reads, read_text = [], Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(weather, "_BLOCK_ROWS", 5)
    monkeypatch.setattr(Path, "read_text", counted)
    with pytest.raises(InvalidInputError, match="row 47: relative humidity 101.0"):
        load_weather(path)
    assert reads == [path]


def test_series_must_end_by_year_9999(tmp_path):
    """A series whose last hour is 9999-12-31T23:00 has no representable
    end, so it is refused; one hour less loads."""
    last = datetime(9999, 12, 31, 23, tzinfo=timezone.utc)
    fits = WeatherSeries.from_columns(last - 23 * HOUR, *[[3.0] * 23, [225.0] * 23,
                                                          [15.0] * 23, [40.0] * 23])
    assert fits.end == last
    with pytest.raises(CoverageError, match=r"\[9999-12-31T00:00:00\+00:00, 9999-12-31T23:00"):
        fits.at(last)
    with pytest.raises(InvalidInputError, match="from 9999-12-31T00:00:00.* after year 9999"):
        WeatherSeries.from_columns(last - 23 * HOUR, *[[3.0] * 24, [225.0] * 24,
                                                       [15.0] * 24, [40.0] * 24])
    path = tmp_path / "wx.csv"
    write_rows(path, *(f"9999-12-31T{h:02d}:00Z" for h in range(24)))
    with pytest.raises(InvalidInputError, match=f"{re.escape(str(path))}: weather series from "):
        load_weather(path)


def unpadded(t):
    return f"{t.year}-{t.month}-{t.day}T{t.hour}:{t.minute}Z"


values = st.tuples(
    st.floats(0.0, 40.0), st.floats(0.0, 359.99),
    st.floats(-40.0, 50.0), st.floats(0.0, 100.0),
)


@given(
    start=st.datetimes(datetime(1990, 1, 1), datetime(2040, 12, 31)),
    rows=st.lists(st.tuples(values, st.booleans(), st.booleans()), min_size=1, max_size=60),
    block=st.sampled_from([weather._BLOCK_ROWS, 1, 2, 7]),
    probe=st.data(),
)
def test_load_equals_row_by_row_reference(tmp_path_factory, start, rows, block, probe):
    start = start.replace(second=0, microsecond=0, tzinfo=timezone.utc)
    lines = [",".join(WEATHER_HEADER)]
    for h, ((ws, wd, t, rh), short, rounded) in enumerate(rows):
        instant = start + h * HOUR
        text = unpadded(instant) if short else instant.strftime(TIMESTAMP_FORMAT)
        fields = [round(v, 2) if rounded else v for v in (ws, wd, t, rh)]
        lines.append(text + "".join(f",{v!r}" for v in fields))
    path = tmp_path_factory.mktemp("wx") / "wx.csv"
    path.write_text("\n".join(lines) + "\n")

    with patch.object(weather, "_BLOCK_ROWS", block), patch.object(weather, "_walk", never):
        got = load_weather(path)
    want = reference_load(path)
    assert got == want
    # Blocks the column passes reject but the row rules accept still load.
    with patch.object(weather, "_BLOCK_ROWS", block), patch.object(weather, "_columns", reject):
        assert load_weather(path) == got
    i = probe.draw(st.integers(0, len(rows) - 1))
    early = got.at(start + i * HOUR + timedelta(minutes=probe.draw(st.integers(0, 59))))
    assert early == want.samples[i]
    assert got.samples == want.samples
    assert got.at(start + i * HOUR) is got.samples[i] is early


# ------------------------------------------------------ synth weather file


def reference_row(s):
    ts = s.timestamp.astimezone(timezone.utc).strftime(TIMESTAMP_FORMAT)
    return f"{ts},{s.wind_speed!r},{s.wind_dir_from!r},{s.temperature!r},{s.rel_humidity!r}"


@pytest.mark.parametrize("seed", [0, 1])
def test_synth_weather_file_is_the_row_formatters(tmp_path, seed):
    wx = study_weather(year=2022, seed=seed)
    assert len(wx) == 8760 and wx.start == datetime(2022, 1, 1, tzinfo=timezone.utc)
    path = tmp_path / "weather.csv"
    write_weather(wx, path)
    want = "\n".join([",".join(WEATHER_HEADER), *map(reference_row, wx.samples)]) + "\n"
    assert path.read_bytes() == want.encode()
    with patch.object(weather, "_walk", never):
        assert load_weather(path) == wx
    with patch.object(weather, "_columns", reject):
        assert load_weather(path) == wx


def test_write_weather_formats_a_non_utc_start_in_utc(tmp_path):
    plus2 = timezone(timedelta(hours=2))
    s = WeatherSeries(tuple(
        WeatherSample(datetime(2022, 1, 1, 1, 30, tzinfo=plus2) + h * HOUR, 1.5, 90.0, 3.0, 50.0)
        for h in range(26)
    ))
    path = tmp_path / "wx.csv"
    write_weather(s, path)
    want = "\n".join([",".join(WEATHER_HEADER), *map(reference_row, s.samples)]) + "\n"
    assert path.read_text() == want
    assert load_weather(path) == s
