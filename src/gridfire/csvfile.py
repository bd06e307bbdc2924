"""One reader for every CSV the program reads, the weather file included.

`read_csv` numbers each data row by its line in the file, as an editor
shows it, and holds each row to the header's field count, so the row
numbers in every input error and the width rule have one definition. A
file the program writes and reads back is a tuple of `Column`s, from
which `write_table` and `read_table` build its header and rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence


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


def read_table(path: str | Path, columns: Sequence[Column],
               error: type[Exception]) -> Iterator[tuple[int, list]]:
    """(line, values) per `read_csv` row, parsed by the columns; a header
    other than their names or a field that does not parse raises `error`."""
    header, rows = read_csv(path, error)
    names = [c.name for c in columns]
    if header != names:
        raise error(f"{path}: expected header {','.join(names)}")
    parses = [c.parse for c in columns]
    for line, fields in rows:
        try:
            values = [parse(f) for parse, f in zip(parses, fields)]
        except ValueError as exc:
            raise error(f"{path}: row {line}: {exc}") from exc
        yield line, values
