"""The run directory's row writer against ``csv.writer``."""

import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from agrisim.rows import quoted, write_csv

# what csv.writer quotes for, and plain and non-ASCII text
FIELD = st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "Z", "°", "é"],
                max_size=6)


def csv_writer_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def write_csv_text(header, columns) -> str:
    buf = io.StringIO(newline="")
    write_csv(buf, header, columns)
    return buf.getvalue()


# at least two columns: csv.writer writes a row of one empty field as '""',
# so that the row is not blank, and write_csv would write an empty line;
# no artifact has only one column, so the writer is never asked to
@settings(max_examples=500)
@given(st.integers(2, 6).flatmap(lambda width: st.tuples(
    st.lists(FIELD, min_size=width, max_size=width),
    st.lists(st.lists(FIELD, min_size=width, max_size=width), max_size=5))))
def test_write_csv_matches_csv_writer(table):
    header, rows = table
    columns = [quoted([row[k] for row in rows]) for k in range(len(header))]
    assert write_csv_text(header, columns) == csv_writer_text([header, *rows])


def test_csv_writer_quotes_a_lone_empty_field():
    assert csv_writer_text([[""]]) == '""\r\n'
    assert csv_writer_text([["", ""]]) == ",\r\n"


def test_numbers_by_repr_as_csv_writer_writes_them():
    row = [0.0, -0.0, 1e16, 5e-324, float("nan"), 0.1, 7, -3, 2**70]
    assert write_csv_text(["v"] * len(row), [[repr(v)] for v in row]) == \
        csv_writer_text([["v"] * len(row), row])

