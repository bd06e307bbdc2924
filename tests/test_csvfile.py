"""The shared CSV row reader (file-line numbering and the field-count
rule) and the column tables' writer and reader."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfire import cli
from gridfire.cli import RISK_COLUMNS
from gridfire.csvfile import read_csv, read_table, write_table
from gridfire.errors import GridFireError, InvalidInputError
from gridfire.landscape import CATALOG_COLUMNS, load_catalog
from gridfire.scenarios import RESULT_COLUMNS, read_results

blank = st.sampled_from(["", " ", "   "])
field = st.text(alphabet="ab09.-_", min_size=1, max_size=4)
data_row = st.lists(field, min_size=1, max_size=5).map(",".join)
lines = st.lists(st.one_of(blank, data_row), max_size=30)


@given(before=st.lists(blank, max_size=3), header=st.lists(field, min_size=1, max_size=5),
       body=lines)
def test_read_csv_numbers_rows_by_file_line(tmp_path_factory, before, header, body):
    """Every non-blank line after the header comes back with its 1-based
    line in the file, until the first row whose width differs from the
    header's, which raises naming that line."""
    text = [*before, ",".join(header), *body]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text("\n".join(text) + "\n")
    want, ragged = [], None
    for line, t in enumerate(body, len(before) + 2):
        if not t.strip():
            continue
        fields = t.split(",")
        if len(fields) != len(header):
            ragged = (line, len(fields))
            break
        want.append((line, fields))

    got_header, rows = read_csv(path, InvalidInputError)
    assert got_header == header
    got = []
    if ragged is None:
        got.extend(rows)
    else:
        line, width = ragged
        expected = f"{path}: row {line}: expected {len(got_header)} fields, got {width}"
        with pytest.raises(InvalidInputError) as exc:
            got.extend(rows)
        assert str(exc.value) == expected
    assert got == want


def test_read_csv_names_a_file_it_cannot_read(tmp_path):
    with pytest.raises(InvalidInputError, match="cannot read .*absent.csv"):
        read_csv(tmp_path / "absent.csv", InvalidInputError)


# ------------------------------------------------------------ column tables

ints = st.integers()
amounts = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                    st.sampled_from([5e-324, 1.7976931348623157e308]))
TABLES = {
    "results": (RESULT_COLUMNS, st.tuples(ints, ints, ints, ints, amounts,
                                          st.frozensets(ints), amounts)),
    "risk": (RISK_COLUMNS, st.tuples(ints, amounts, amounts, amounts, amounts, ints)),
    "catalog": (CATALOG_COLUMNS, st.tuples(ints, st.text(alphabet="ab_ ", max_size=6),
                                           st.booleans(), amounts, amounts, amounts, amounts)),
}


@given(table=st.sampled_from(sorted(TABLES)).flatmap(
    lambda name: st.tuples(st.just(TABLES[name][0]), st.lists(TABLES[name][1], max_size=5))))
def test_table_round_trip(tmp_path_factory, table):
    """read_table gives back what write_table wrote, but for the spaces
    around a fuel name, which the catalog's name column strips; writing
    what was read again gives the same bytes exactly when nothing was
    stripped. A table of no rows reads as an error."""
    columns, rows = table
    d = tmp_path_factory.mktemp("table")
    write_table(d / "first.csv", columns, rows)
    if not rows:
        with pytest.raises(InvalidInputError) as exc:
            read_table(d / "first.csv", columns, InvalidInputError)
        assert str(exc.value) == f"{d / 'first.csv'}: no data rows"
        return
    got = [values for _, values in read_table(d / "first.csv", columns, InvalidInputError)]
    want = [[v.strip() if isinstance(v, str) else v for v in row] for row in rows]
    assert got == want
    write_table(d / "second.csv", columns, got)
    same = (d / "second.csv").read_bytes() == (d / "first.csv").read_bytes()
    assert same == (got == [list(row) for row in rows])


def _report(path):
    """`report` on the folder of a risk.csv at `path`."""
    (path.parent / "table_acres.csv").write_text("line_id,season0,avg\n6,1.0,1.0\n")
    cli.cmd_report(cli.build_parser().parse_args(["report", str(path.parent)]))


@pytest.mark.parametrize("name, read, columns", [
    pytest.param("results.csv", read_results, RESULT_COLUMNS, id="results"),
    pytest.param("risk.csv", _report, RISK_COLUMNS, id="risk"),
    pytest.param("fuel_catalog.csv", load_catalog, CATALOG_COLUMNS, id="catalog"),
])
def test_readers_refuse_a_wrong_header_alike(tmp_path, name, read, columns):
    path = tmp_path / name
    path.write_text("line_id,x\n6,1\n")
    with pytest.raises(GridFireError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: expected header {','.join(c.name for c in columns)}"


def _header(columns):
    return ",".join(c.name for c in columns)


@pytest.mark.parametrize("name, read, header, row, repeat", [
    pytest.param("results.csv", read_results, _header(RESULT_COLUMNS), "6,0,1,120,26.7,5;6,1.25",
                 "scenario (6, 0, 1)", id="results"),
    pytest.param("risk.csv", _report, _header(RISK_COLUMNS), "6,1.0,2.0,3.0,0.5,1", "line 6",
                 id="risk"),
    pytest.param("fuel_catalog.csv", load_catalog, _header(CATALOG_COLUMNS), "0,rock,0,0,0,0,0",
                 "fuel 0", id="catalog"),
    pytest.param("table1.csv", cli._read_table, "line_id,season0,avg", "6,1.0,1.0", "line 6",
                 id="season-table"),
])
def test_readers_refuse_a_repeated_key_and_an_empty_file_alike(tmp_path, name, read, header, row,
                                                               repeat):
    """Each table read back names a row whose key an earlier row has, and
    a file that holds only its header, in the same words."""
    path = tmp_path / name
    for text, message in ((f"{header}\n{row}\n{row}\n", f"row 3: {repeat} repeats row 2"),
                          (f"{header}\n", "no data rows")):
        path.write_text(text)
        with pytest.raises(GridFireError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {message}"
