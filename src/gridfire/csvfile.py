"""One reader for every CSV the program reads, the weather file included.

`read_csv` numbers each data row by its line in the file, as an editor
shows it, and holds each row to the header's field count, so the row
numbers in every input error and the width rule have one definition. A
file the program writes and reads back is a tuple of `Column`s, from
which `write_table` and `read_table` build its header and rows, and
`read_records`, under it and the season tables' reader, checks the rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import GridFireError


Rows = Iterator[tuple[int, list[str]]]


def read_csv(path: str | Path, error: type[Exception]) -> tuple[list[str], Rows]:
    """The stripped header fields of a CSV file and an iterator of
    (line, fields) over its data rows.

    `line` is the row's 1-based line in the file. Blank lines (empty, or
    spaces only) are skipped but counted, and the header is the first line
    that is not blank. A file that cannot be read raises `error` naming the
    file; a row whose field count differs from the header's raises `error`
    naming the file and line when the iterator reaches it.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    rows = _rows(path, text, error)
    _, header = next(rows, (0, []))
    return [f.strip() for f in header], rows


def _blank(fields: list[str]) -> bool:
    """Whether a parsed CSV row is a blank line: empty, or spaces only."""
    return len(fields) < 2 and not "".join(fields).strip()


def _rows(path: str | Path, text: str, error: type[Exception]) -> Rows:
    reader = csv.reader(io.StringIO(text))
    width = None
    try:
        for fields in reader:
            if _blank(fields):
                continue
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise error(f"{path}: row {reader.line_num}: "
                            f"expected {width} fields, got {len(fields)}")
            yield reader.line_num, fields
    except csv.Error as exc:
        raise error(f"{path}: row {reader.line_num}: {exc}") from exc


@dataclass(frozen=True)
class Column:
    """A header name, text -> value (ValueError if it cannot), and value ->
    text (`repr` by default, which reads back to the same float)."""

    name: str
    parse: Callable[[str], Any]
    show: Callable[[Any], str] = repr


def write_table(path: str | Path, columns: Sequence[Column], rows: Iterable[Sequence]) -> None:
    """Write the column names, then each row: its values in column order."""
    shows = [c.show for c in columns]
    lines = [",".join(c.name for c in columns)]
    lines.extend(",".join([show(v) for show, v in zip(shows, row)]) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def read_records(path: str | Path, error: type[Exception], reader: Callable,
                 **keys: Callable) -> list[tuple[int, Any]]:
    """(line, record) per `read_csv` row. `reader(header)` checks the header
    and gives the builder of a row's record from its fields; a ValueError
    from either, or a GridFireError from a record, raises `error` naming
    the file and row. So do a `keys` function's value that an earlier row
    has (`{label} {value} repeats row M`) and a file without rows."""
    header, rows = read_csv(path, error)
    try:
        build = reader(header)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None
    records, seen = [], {}
    for line, fields in rows:
        try:
            record = build(fields)
        except (ValueError, GridFireError) as exc:
            raise error(f"{path}: row {line}: {exc}") from exc
        for label, key in keys.items():
            first = seen.setdefault((label, key(record)), line)
            if first != line:
                raise error(f"{path}: row {line}: {label} {key(record)} repeats row {first}")
        records.append((line, record))
    if not records:
        raise error(f"{path}: no data rows")
    return records


def read_table(path: str | Path, columns: Sequence[Column], error: type[Exception],
               record: Callable = lambda *values: list(values), **keys: Callable) -> list:
    """`read_records` of a file headed by the columns' names, each row's
    record built by `record` from the values they parse (their list)."""
    names = [c.name for c in columns]

    def reader(header):
        if header != names:
            raise ValueError(f"expected header {','.join(names)}")
        return lambda fields: record(*[c.parse(f) for c, f in zip(columns, fields)])

    return read_records(path, error, reader, **keys)
