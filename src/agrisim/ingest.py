"""Local cloud-channel emulation: write-key auth, rate-limited ingestion into
an append-only in-memory time series, per-channel counters, CSV export, and
JSON-lines snapshots.

An ingest call mirrors a batch of REST channel-update requests: a write key,
a timestamp per row and one value column per channel field (at most eight).
Accepted rows are kept as columns. One export pass `repr`s each distinct value
of a column once and writes both the CSV file and the JSON-lines snapshot from
that text, one joined string per file for each slice of rows.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from agrisim.errors import ConfigurationError, InputError

MAX_FIELDS = 8

ACCEPTED = "ACCEPTED"
REJECTED_AUTH = "REJECTED_AUTH"
REJECTED_RATE = "REJECTED_RATE"

# rows per joined string in an export: a whole file's text at once would
# raise the peak memory of a run, and one string per row costs a join each
_SLICE_ROWS = 2048

_U64_MAX = 2**64 - 1


class ChannelNotFound(InputError):
    pass


@dataclass(frozen=True)
class Channel:
    channel_id: str
    write_key: str
    field_names: tuple[str, ...]
    min_update_interval_s: float = 15.0

    def __post_init__(self):
        if not self.write_key:
            raise ConfigurationError("write_key must be non-empty")
        if not 0 < len(self.field_names) <= MAX_FIELDS:
            raise ConfigurationError(f"1..{MAX_FIELDS} fields required")
        if len(set(self.field_names)) != len(self.field_names):
            raise ConfigurationError("field names must be unique")
        # the comparison is False for NaN and exact for an int too large
        # for a float
        if not 0 <= self.min_update_interval_s <= sys.float_info.max:
            raise ConfigurationError(
                f"min_update_interval_s must be finite and non-negative: "
                f"{self.min_update_interval_s!r}")


@dataclass(frozen=True)
class IngestResult:
    status: str


@dataclass
class _ChannelState:
    channel: Channel
    # accepted rows, one (timestamps, fields x rows values) pair per batch;
    # a batch keeps its timestamps' dtype, so int times export as ints
    batches: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    last_accepted_s: float | None = None
    accepted: int = 0
    rejected_auth: int = 0
    rejected_rate: int = 0


class ChannelStore:
    """Append-only store for one or more telemetry channels.

    Single writer per channel; existing entries are never mutated or deleted.
    Entry ids run 1, 2, ... in acceptance order.
    """

    def __init__(self):
        self._channels: dict[str, _ChannelState] = {}

    def create_channel(self, channel: Channel) -> None:
        if channel.channel_id in self._channels:
            raise ConfigurationError(f"channel exists: {channel.channel_id}")
        self._channels[channel.channel_id] = _ChannelState(channel)

    def _state(self, channel_id: str) -> _ChannelState:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise ChannelNotFound(f"unknown channel: {channel_id}") from None

    def ingest_batch(self, channel_id: str, write_key: str, timestamps_s,
                     columns) -> np.ndarray | None:
        """Append the rows that pass auth and the rate limit, in order.

        ``columns`` holds one value column per channel field, each as long
        as ``timestamps_s``. A wrong write key rejects every row and returns
        None; otherwise the result is the mask of accepted rows. A row is
        rate-rejected when it comes less than ``min_update_interval_s``
        after the last accepted row, in this batch or an earlier one.
        Rejections are counted so attempts always reconcile:
        accepted + rejected_auth + rejected_rate == rows offered. A value
        column of the wrong count or length, a non-finite time or value
        (JSON has no NaN or infinity), or a time earlier than the row before
        it raises ``InputError`` and stores and counts nothing. A batch may
        start before the last accepted row of an earlier batch; its rows are
        tested against that row like any other.
        """
        st = self._state(channel_id)
        times = np.asarray(timestamps_s)
        if times.dtype.kind not in "iu":
            times = times.astype(np.float64)
        if times.ndim != 1:
            raise InputError(f"expected a column of timestamps, got shape "
                             f"{times.shape}")
        if write_key != st.channel.write_key:
            st.rejected_auth += len(times)
            return None
        try:
            values = np.asarray(columns, dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"value columns are not numeric columns of one "
                             f"length: {exc}") from None
        width = len(st.channel.field_names)
        if values.shape != (width, len(times)):
            raise InputError(f"expected {width} value columns of "
                             f"{len(times)} rows, got shape {values.shape}")
        if not (np.isfinite(values).all() and np.isfinite(times).all()):
            raise InputError("non-finite timestamp or value")
        if np.any(times[1:] < times[:-1]):
            raise InputError("timestamps are not in time order")

        # a row is accepted when ``last is None or t - last >= limit`` holds
        # for its ``item()``, in Python's int/float arithmetic, and then
        # becomes ``last``. In time order that test holds from some row on,
        # so the first accepted row is a bisection, and each accepted row
        # leads to the next row due after it.
        last, limit = st.last_accepted_s, st.channel.min_update_interval_s
        n = len(times)
        first = bisect.bisect_left(range(n), True, key=lambda j: (
            last is None or times[j].item() - last >= limit))
        accepted = np.zeros(n + 1, dtype=bool)
        if first < n:
            # row n stands for "no row": the end of every chain
            jump = np.append(_next_due(times, limit), n)
            accepted[first] = True
            # pointer doubling: after k rounds the first 2**k accepted rows
            # are marked and ``jump`` skips 2**k accepted rows at once
            while jump[first] != n:
                accepted[jump[accepted]] = True
                jump = jump[jump]
        accepted = accepted[:n]
        count = int(np.count_nonzero(accepted))
        if count:
            st.batches.append((times[accepted], values[:, accepted]))
            st.last_accepted_s = times[np.flatnonzero(accepted)[-1]].item()
        st.accepted += count
        st.rejected_rate += n - count
        return accepted

    def ingest(self, channel_id: str, write_key: str, timestamp_s: float,
               values) -> IngestResult:
        """One-row ``ingest_batch``: append one entry, or say why not."""
        accepted = self.ingest_batch(channel_id, write_key, [timestamp_s],
                                     [[v] for v in values])
        if accepted is None:
            return IngestResult(REJECTED_AUTH)
        return IngestResult(ACCEPTED if accepted[0] else REJECTED_RATE)

    def entries(self, channel_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the accepted entries as columns: the creation times
        (entry id k + 1 at index k) and a fields x entries value array."""
        st = self._state(channel_id)
        times = [t for t, _ in st.batches] or [np.empty(0)]
        values = [v for _, v in st.batches] or [
            np.empty((len(st.channel.field_names), 0))]
        return np.concatenate(times), np.concatenate(values, axis=1)

    def counters(self, channel_id: str) -> dict:
        st = self._state(channel_id)
        return {"accepted": st.accepted, "rejected_auth": st.rejected_auth,
                "rejected_rate": st.rejected_rate}

    def export(self, channel_id: str, csv_fh, jsonl_fh) -> int:
        """Write the channel to two text streams, as CSV (created_at,
        entry_id, then the field columns) and as JSON lines, one entry
        object per line as ``json.dumps(entry, sort_keys=True)`` writes it;
        returns the number of entries.

        Each column calls ``repr`` (which is how ``json.dumps`` writes a
        finite float) once per distinct value. Both files are written from
        those strings, one ``"".join`` per file for each slice of rows, with
        the file's fixed separators between the columns.
        """
        st = self._state(channel_id)
        names = st.channel.field_names
        order = sorted(range(len(names)), key=names.__getitem__)
        # a repr never holds a comma, quote or line break, so no CSV field
        # needs the quoting csv.writer would add
        csv_seps = ["", ",", *[","] * len(names), "\r\n"]
        jsonl_seps = ['{"created_at": ', ', "entry_id": ', *(
            (", " if k else ', "values": {') + json.dumps(names[j]) + ": "
            for k, j in enumerate(order)), "}}\n"]
        csv.writer(csv_fh).writerow(["created_at", "entry_id", *names])
        entry_id = 1
        # one batch at a time, so a batch's int times print as ints
        for times, values in st.batches:
            columns = [_reprs(times), *map(_reprs, values)]
            for start in range(0, len(times), _SLICE_ROWS):
                rows = slice(start, start + _SLICE_ROWS)
                created_at, *fields = [c[rows].tolist() for c in columns]
                ids = list(map(str, range(entry_id,
                                          entry_id + len(created_at))))
                csv_fh.write(_join_rows(csv_seps, [created_at, ids, *fields]))
                jsonl_fh.write(_join_rows(jsonl_seps, [
                    created_at, ids, *(fields[j] for j in order)]))
                entry_id += len(created_at)
        return entry_id - 1


# a float time plus the limit, or a difference of two, may pass the float
# range; it is then inf, as in Python arithmetic
@np.errstate(over="ignore")
def _next_due(times: np.ndarray, limit) -> np.ndarray:
    """For each row i of a batch in time order, the first row j > i with
    ``times[j] - times[i] >= limit`` as Python computes it on the rows'
    ``item()``s, or ``len(times)`` if there is none.

    Int times compare exact differences, so a difference passes when it is
    at least ``ceil(limit)``; they are taken as offsets from the first row
    in uint64, where every difference of a sorted int64 batch fits. Float
    times compare the float64 difference with the least float not below
    ``limit``. A ``searchsorted`` of each row plus that bound gives a first
    guess, which can be off where ``t + bound`` rounds differently from the
    difference; the guess then moves by one distinct time at a time, forward
    while it fails and back while the row before it passes, until no row
    moves. The test is monotone in j, so this ends on the exact row.
    """
    n = len(times)
    rows = np.arange(n)
    if times.dtype.kind in "iu":
        key = times.astype(np.uint64)
        key -= key[0]
        bound = math.ceil(limit)
        guess = key + min(bound, _U64_MAX)
        guess[guess < key] = _U64_MAX  # saturate instead of wrapping
    else:
        key, bound = times, float(limit)
        if bound < limit:  # an int limit that rounds down as a float
            bound = math.nextafter(bound, math.inf)
        guess = key + bound
    nxt = np.maximum(np.searchsorted(key, guess), rows + 1)
    while True:
        # nxt > i, so neither difference is negative
        ahead = (nxt < n) & (key[np.minimum(nxt, n - 1)] - key < bound)
        behind = (nxt - 1 > rows) & (key[nxt - 1] - key >= bound)
        if not (ahead.any() or behind.any()):
            return nxt
        nxt[ahead] = np.searchsorted(key, key[nxt[ahead]], "right")
        nxt[behind] = np.maximum(
            np.searchsorted(key, key[nxt[behind] - 1]), rows[behind] + 1)


def _reprs(column: np.ndarray) -> np.ndarray:
    """The ``repr`` of each value of ``column`` as an object array, with one
    ``repr`` call per distinct value. Floats are told apart by their bits,
    since comparing them as floats would merge -0.0 with 0.0."""
    key = column.view(np.int64) if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(key, return_inverse=True)
    text = list(map(repr, distinct.view(column.dtype).tolist()))
    return np.array(text, dtype=object)[inverse]


def _join_rows(separators: list[str], columns: list[list[str]]) -> str:
    """Rows of text as one string: ``separators[k]`` comes before column k
    in each row and ``separators[-1]`` ends it."""
    row = [part for sep in separators[:-1] for part in (sep, None)]
    row.append(separators[-1])
    parts = row * len(columns[0])
    for k, column in enumerate(columns):
        parts[2 * k + 1::len(row)] = column
    return "".join(parts)
