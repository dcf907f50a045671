"""The run directory's row writer against ``csv.writer``."""

import csv
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrisim.rows import SLICE_ROWS, write_csv

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
    columns = [[row[k] for row in rows] for k in range(len(header))]
    assert write_csv_text(header, columns) == csv_writer_text([header, *rows])


def test_csv_writer_quotes_a_lone_empty_field():
    assert csv_writer_text([[""]]) == '""\r\n'
    assert csv_writer_text([["", ""]]) == ",\r\n"


# floats that are told apart only by their bits, written with an exponent,
# or not finite
FLOAT = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, float("nan"), float("inf")]))


def pool(values):
    return st.lists(values, min_size=1, max_size=8)


# each column of values as a writer hands it over: a list, a range of ids,
# an int64 or float64 array, or a list of numpy scalars. The rows pick from
# a few values per column, so values repeat, and may fill more than a slice.
@settings(max_examples=40, deadline=None)
@example(SLICE_ROWS + 1, [",", '"', "a"], [7, -3, 2**70, -2**70],
         [0.0, -0.0, 1e16, 5e-324, float("nan"), 0.1, float("inf")],
         [-2**63, 2**63 - 1], 2**70, 0)
@given(st.integers(0, 2 * SLICE_ROWS + 1), pool(FIELD),
       pool(st.integers(-2**70, 2**70)), pool(FLOAT),
       pool(st.integers(-2**63, 2**63 - 1)), st.integers(-2**70, 2**70),
       st.integers(0, 2**32 - 1))
def test_write_csv_of_values_matches_csv_writer(n, texts, ints, floats,
                                                int64s, start, seed):
    rng = np.random.default_rng(seed)

    def pick(values):
        return [values[i] for i in rng.integers(len(values), size=n)]

    floats = np.array(pick(floats), dtype=np.float64)
    int64s = np.array(pick(int64s), dtype=np.int64)
    columns = [pick(texts), pick(ints), floats.tolist(),
               range(start, start + n), int64s, floats, list(floats),
               list(int64s)]
    header = [f"c{k}" for k in range(len(columns))]
    rows = [[column[i] for column in columns] for i in range(n)]
    # compared line by line: a failure then names the first line that
    # differs, where a diff of the whole texts takes minutes
    assert write_csv_text(header, columns).split("\r\n") == \
        csv_writer_text([header, *rows]).split("\r\n")
