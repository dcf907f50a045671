"""The run directory's rows: the ``csv`` module's field text, and the one
writer of every CSV artifact and the channel snapshot, which joins each
slice of rows with the file's fixed separators between the columns."""

# rows per joined string: a whole file's text at once would raise the peak
# memory of a run, and one string per row costs a join each
SLICE_ROWS = 2048


def quoted(column: list[str]) -> list[str]:
    """Each text as the ``csv`` module writes it, quoting each distinct
    value once: quoted, quotes doubled, when it holds a comma, quote or line
    break. That module writes an int or a float as its ``repr``."""
    text = {t: '"' + t.replace('"', '""') + '"'
            if any(c in t for c in ',"\r\n') else t for t in set(column)}
    return list(map(text.__getitem__, column))


def write_rows(fh, separators: list[str], columns: list[list[str]]) -> None:
    """Write rows of text to the stream ``fh``: ``separators[k]`` comes
    before column k in each row and ``separators[-1]`` ends it."""
    row = [*(part for sep in separators[:-1] for part in (sep, None)),
           separators[-1]]
    for start in range(0, len(columns[0]), SLICE_ROWS):
        block = [c[start:start + SLICE_ROWS] for c in columns]
        parts = row * len(block[0])
        for k, column in enumerate(block):
            parts[2 * k + 1::len(row)] = column
        fh.write("".join(parts))


def write_csv(fh, header: list[str], columns: list[list[str]]) -> None:
    """A CSV file as the ``csv`` module writes it: the ``header`` row, then a
    row per entry of the columns, whose fields are already CSV text."""
    fh.write(",".join(quoted(header)) + "\r\n")
    write_rows(fh, ["", *[","] * (len(header) - 1), "\r\n"], columns)
