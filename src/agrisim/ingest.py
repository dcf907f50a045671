"""Local cloud-channel emulation of one channel: write-key auth,
rate-limited ingestion into an append-only in-memory time series, the
channel's counters, CSV export, and JSON-lines snapshots.

An ingest call mirrors a batch of REST channel-update requests: a write key,
a timestamp per row in whole seconds and one value column per channel field
(at most eight). Accepted rows are kept as columns. The export hands them
to the one slice loop of ``agrisim.rows``, which turns each slice into text
once (``rows.cells``) for both the CSV file and the JSON-lines snapshot.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from agrisim.errors import ConfigurationError, InputError
from agrisim.rows import write_csv, write_rows

MAX_FIELDS = 8

ACCEPTED = "ACCEPTED"
REJECTED_AUTH = "REJECTED_AUTH"
REJECTED_RATE = "REJECTED_RATE"

_I64_MAX = 2**63 - 1
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
        # due_mask's limit: the comparison is False for NaN and exact for an
        # int too large for a float
        if not 0 <= self.min_update_interval_s <= sys.float_info.max:
            raise ConfigurationError(
                f"min_update_interval_s must be finite and non-negative: "
                f"{self.min_update_interval_s!r}")


@dataclass(frozen=True)
class IngestResult:
    status: str


class ChannelStore:
    """Append-only store of one telemetry channel.

    Single writer; existing entries are never mutated or deleted. Entry ids
    run 1, 2, ... in acceptance order. Each request names the channel by its
    id, and any other id raises ``ChannelNotFound``.
    """

    def __init__(self, channel: Channel):
        self.channel = channel
        # accepted rows, one (int64 timestamps, fields x rows values) pair per
        # batch
        self._batches: list[tuple[np.ndarray, np.ndarray]] = []
        self.last_accepted_s: int | None = None
        self._counters = {"accepted": 0, "rejected_auth": 0,
                          "rejected_rate": 0}

    def _address(self, channel_id: str) -> None:
        if channel_id != self.channel.channel_id:
            raise ChannelNotFound(f"unknown channel: {channel_id}")

    def ingest_batch(self, channel_id: str, write_key: str, timestamps_s,
                     columns) -> np.ndarray | None:
        """Append the rows that pass auth and the rate limit, in order.

        ``timestamps_s`` is an integer column of whole seconds in the int64
        range, and ``columns`` holds one value column per channel field,
        each as long as it. A time column that is not whole seconds, value
        columns of the wrong count or length, a value that is not a finite
        number (JSON has no NaN or infinity), or a time earlier than the row
        before it raises ``InputError`` and stores and counts nothing,
        whatever the write key. A wrong write key on a well-formed batch
        rejects every row and returns None; otherwise the result is the mask
        of accepted rows. A row is rate-rejected when it comes less than
        ``min_update_interval_s`` after the last accepted row, in this batch
        or an earlier one. Rejections are counted so attempts always
        reconcile: accepted + rejected_auth + rejected_rate == rows offered.
        A batch may start before the last accepted row of an earlier batch;
        its rows are tested against that row like any other.
        """
        self._address(channel_id)
        times = time_column(timestamps_s)
        try:
            values = np.asarray(columns, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"value columns are not numeric columns of one "
                             f"length: {exc}") from None
        width = len(self.channel.field_names)
        if values.shape != (width, len(times)):
            raise InputError(f"expected {width} value columns of "
                             f"{len(times)} rows, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise InputError("non-finite value")
        if write_key != self.channel.write_key:
            self._counters["rejected_auth"] += len(times)
            return None

        accepted = due_mask(times, self.last_accepted_s,
                            self.channel.min_update_interval_s)
        count = int(np.count_nonzero(accepted))
        if count:
            self._batches.append((times[accepted], values[:, accepted]))
            self.last_accepted_s = times[np.flatnonzero(accepted)[-1]].item()
        self._counters["accepted"] += count
        self._counters["rejected_rate"] += len(times) - count
        return accepted

    def ingest(self, channel_id: str, write_key: str, timestamp_s: int,
               values) -> IngestResult:
        """One-row ``ingest_batch``: append one entry, or say why not."""
        accepted = self.ingest_batch(channel_id, write_key, [timestamp_s],
                                     [[v] for v in values])
        if accepted is None:
            return IngestResult(REJECTED_AUTH)
        return IngestResult(ACCEPTED if accepted[0] else REJECTED_RATE)

    def counters(self, channel_id: str) -> dict:
        self._address(channel_id)
        return dict(self._counters)

    def export(self, channel_id: str, csv_fh, jsonl_fh) -> int:
        """Write the channel to two text streams, as CSV (created_at,
        entry_id, then the field columns) and as JSON lines, one entry
        object per line as ``json.dumps(entry, sort_keys=True)`` writes it;
        returns the number of entries.

        Both files are two streams of one ``rows.write_rows`` call, so
        each slice of rows is turned into text once (``rows.cells``: a
        value column by one ``repr``, as ``json.dumps`` writes a finite
        float, per distinct value) and only one slice's text is held at a time.
        """
        self._address(channel_id)
        names = self.channel.field_names
        order = sorted(range(len(names)), key=names.__getitem__)
        jsonl_seps = ['{"created_at": ', ', "entry_id": ', *(
            (", " if k else ', "values": {') + json.dumps(names[j]) + ": "
            for k, j in enumerate(order)), "}}\n"]
        csv_seps = ["", *[","] * (len(names) + 1), "\r\n"]
        write_csv(csv_fh, ["created_at", "entry_id", *names],
                  [[]] * (len(names) + 2))  # the header row alone
        batches = self._batches or [(np.zeros(0, np.int64),
                                     np.zeros((len(names), 0)))]
        times = np.concatenate([t for t, _ in batches])
        values = np.concatenate([v for _, v in batches], axis=1)
        # the JSON lines reuse the CSV cells: a number's cell is never quoted
        write_rows([(csv_fh, csv_seps, range(len(names) + 2)),
                    (jsonl_fh, jsonl_seps, [0, 1, *(j + 2 for j in order)])],
                   [times, range(1, len(times) + 1), *values])
        return len(times)


def time_column(times) -> np.ndarray:
    """``times``, a column of integers in the int64 range in time order, as
    an int64 column, else ``InputError``; an empty one may have any dtype."""
    times = np.asarray(times)
    if times.ndim != 1:
        raise InputError(f"expected a column of timestamps, got shape "
                         f"{times.shape}")
    if len(times) and times.dtype.kind not in "iu":
        raise InputError(f"timestamps must be whole seconds in an integer "
                         f"column, got {times.dtype}")
    if times.dtype.kind == "u" and np.any(times > _I64_MAX):
        raise InputError("timestamps past the int64 range")
    times = times.astype(np.int64, copy=False)
    if np.any(times[1:] < times[:-1]):
        raise InputError("timestamps are not in time order")
    return times


def due_mask(times: np.ndarray, last: int | None, limit) -> np.ndarray:
    """The rows of an int64 column in time order that are kept when a row is
    kept once it comes at least ``limit`` seconds after the time last kept:
    ``last`` before the column, or none if it is None. This is the rate
    limit of a channel and the dedup window of a dispatcher.

    Whole seconds are ``limit`` apart when they are ``ceil(limit)`` apart.
    The differences are taken exactly, as uint64 offsets from the first
    row: every difference of a sorted int64 column fits. A time that would
    fall past the uint64 range is later than any row. One ``searchsorted``
    gives the first row due after ``last`` and, for each row, the first
    later row due after it; pointer doubling then marks the chain of kept
    rows from the first in about log2(kept) array passes.
    """
    n = len(times)
    bound = math.ceil(limit)
    if not n or bound > _U64_MAX:  # no two int64 times are that far apart
        first, jump = (0 if last is None else n), np.full(n + 1, n)
    else:
        key = times.astype(np.uint64)
        key -= key[0]
        lead = 0 if last is None else max(last - times[0].item() + bound, 0)
        goal = np.append(np.uint64(min(lead, _U64_MAX)),
                         key + np.uint64(bound))
        due = np.searchsorted(key, goal)
        due[np.append(lead > _U64_MAX, goal[1:] < key)] = n  # past 2**64 - 1
        first = int(due[0])
        # a zero bound finds the first row at row i's time, which may be i;
        # row n stands for "no row": the end of every chain
        jump = np.append(np.maximum(due[1:], np.arange(1, n + 1)), n)
    kept = np.zeros(n + 1, dtype=bool)
    if first < n:
        kept[first] = True
        # after k rounds the first 2**k kept rows are marked and ``jump``
        # skips 2**k kept rows at once
        while jump[first] != n:
            kept[jump[kept]] = True
            jump = jump[jump]
    return kept[:n]
