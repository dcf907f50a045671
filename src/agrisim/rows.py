"""The run directory's rows: the text ``csv.writer`` writes for a cell, and
the one writer of every CSV artifact and the channel snapshot, which turns
each slice of rows into text once and joins it per file."""

import numpy as np

# rows per joined string: a whole file's text at once would raise the peak
# memory of a run, and one string per row costs a join each
SLICE_ROWS = 2048


def cells(column) -> list[str]:
    """The text ``csv.writer`` writes for each value of a column of texts or
    of numbers: a text quoted, quotes doubled, when it holds a comma, quote
    or line break; a number by ``str``, or by ``repr`` (the same, sooner) on
    an array's ``tolist``. Each distinct text, and each float64 array value
    by its bits (so -0.0 and 0.0 stay apart), is written once."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        distinct, inverse = np.unique(column.view(np.int64),
                                      return_inverse=True)
        text = list(map(repr, distinct.view(np.float64).tolist()))
        return np.array(text, dtype=object)[inverse].tolist()
    fmt = str
    if isinstance(column, np.ndarray):
        column, fmt = column.tolist(), repr
    if not column or not isinstance(column[0], str):
        return list(map(fmt, column))
    text = {t: '"' + t.replace('"', '""') + '"'
            if any(c in t for c in ',"\r\n') else t for t in set(column)}
    return list(map(text.__getitem__, column))


def write_rows(streams, columns) -> None:
    """Write a row per entry of ``columns``, columns of values, to each
    stream ``(fh, separators, picks)``: the cells of the columns ``picks``
    names, in order, ``separators[k]`` before the k-th and ``separators[-1]``
    at the end. Each slice of ``SLICE_ROWS`` rows is turned into text once
    for all streams; only one slice's text is held at a time."""
    layouts = [(fh, [*(part for sep in seps[:-1] for part in (sep, None)),
                     seps[-1]], picks) for fh, seps, picks in streams]
    for start in range(0, len(columns[0]), SLICE_ROWS):
        block = [cells(c[start:start + SLICE_ROWS]) for c in columns]
        for fh, row, picks in layouts:
            parts = row * len(block[0])
            for k, j in enumerate(picks):
                parts[2 * k + 1::len(row)] = block[j]
            fh.write("".join(parts))
            del parts  # before the next stream's parts are made


def write_csv(fh, header: list[str], columns) -> None:
    """A CSV file as ``csv.writer`` writes it: the ``header`` row, then a row
    per entry of the columns of values."""
    fh.write(",".join(cells(header)) + "\r\n")
    write_rows([(fh, ["", *[","] * (len(header) - 1), "\r\n"],
                 range(len(header)))], columns)
