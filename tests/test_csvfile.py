"""The shared CSV row reader: file-line numbering and the field-count rule."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfire.csvfile import read_csv
from gridfire.errors import InvalidInputError

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
