"""Local cloud-channel emulation: write-key auth, rate-limited ingestion into
an append-only in-memory time series, per-channel counters, CSV export, and
JSON-lines snapshots.

An ingest call mirrors a REST channel-update request: a write key, one value
per channel field (at most eight) and a timestamp.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from agrisim.errors import ConfigurationError, InputError

MAX_FIELDS = 8

ACCEPTED = "ACCEPTED"
REJECTED_AUTH = "REJECTED_AUTH"
REJECTED_RATE = "REJECTED_RATE"


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


@dataclass(frozen=True)
class ChannelEntry:
    entry_id: int
    created_at_s: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class IngestResult:
    status: str
    entry: ChannelEntry | None = None


@dataclass
class _ChannelState:
    channel: Channel
    entries: list[ChannelEntry] = field(default_factory=list)
    last_accepted_s: float | None = None
    accepted: int = 0
    rejected_auth: int = 0
    rejected_rate: int = 0


class ChannelStore:
    """Append-only store for one or more telemetry channels.

    Single writer per channel; existing entries are never mutated or deleted.
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

    def ingest(self, channel_id: str, write_key: str, timestamp_s: float,
               values) -> IngestResult:
        """Append one entry, or reject on bad key / rate limit.

        Rejections are counted separately so attempts always reconcile:
        accepted + rejected_auth + rejected_rate == total calls.
        """
        st = self._state(channel_id)
        if write_key != st.channel.write_key:
            st.rejected_auth += 1
            return IngestResult(REJECTED_AUTH)
        if (st.last_accepted_s is not None
                and timestamp_s - st.last_accepted_s < st.channel.min_update_interval_s):
            st.rejected_rate += 1
            return IngestResult(REJECTED_RATE)
        values = tuple(float(v) for v in values)
        if len(values) != len(st.channel.field_names):
            raise InputError(
                f"expected {len(st.channel.field_names)} values, got {len(values)}")
        entry = ChannelEntry(entry_id=st.accepted + 1,
                             created_at_s=timestamp_s, values=values)
        st.entries.append(entry)
        st.last_accepted_s = timestamp_s
        st.accepted += 1
        return IngestResult(ACCEPTED, entry)

    def entries(self, channel_id: str) -> list[ChannelEntry]:
        return list(self._state(channel_id).entries)

    def counters(self, channel_id: str) -> dict:
        st = self._state(channel_id)
        return {"accepted": st.accepted, "rejected_auth": st.rejected_auth,
                "rejected_rate": st.rejected_rate}

    def export_csv(self, channel_id: str, path) -> int:
        """Write the channel as CSV (created_at, entry_id, then field columns);
        returns the number of data rows."""
        st = self._state(channel_id)
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["created_at", "entry_id", *st.channel.field_names])
            for e in st.entries:
                writer.writerow([repr(e.created_at_s), e.entry_id,
                                 *[repr(v) for v in e.values]])
        return len(st.entries)

    def snapshot_jsonl(self, channel_id: str, path) -> int:
        """Persist the channel as JSON lines, one entry object per line."""
        st = self._state(channel_id)
        with Path(path).open("w") as fh:
            for e in st.entries:
                fh.write(json.dumps({
                    "entry_id": e.entry_id,
                    "created_at": e.created_at_s,
                    "values": dict(zip(st.channel.field_names, e.values)),
                }, sort_keys=True) + "\n")
        return len(st.entries)
