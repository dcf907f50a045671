"""Channel store: auth, rate limiting, queries, persistence round trips."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrisim.errors import ConfigurationError
from agrisim.ingest import (
    ACCEPTED,
    REJECTED_AUTH,
    REJECTED_RATE,
    Channel,
    ChannelEntry,
    ChannelNotFound,
    ChannelStore,
)

FIELDS = ("moisture", "temp", "humidity")


def make_store(min_interval=15.0):
    store = ChannelStore()
    store.create_channel(Channel("ch-1", "KEY", FIELDS,
                                 min_update_interval_s=min_interval))
    return store


class TestIngest:
    def test_first_write_accepted_with_entry_id_1(self):
        store = make_store()
        result = store.ingest("ch-1", "KEY", 0.0, (40.0, 22.0, 45.0))
        assert result.status == ACCEPTED
        assert result.entry.entry_id == 1

    def test_write_inside_interval_throttled(self):
        store = make_store()
        store.ingest("ch-1", "KEY", 0.0, (40.0, 22.0, 45.0))
        result = store.ingest("ch-1", "KEY", 5.0, (41.0, 22.0, 45.0))
        assert result.status == REJECTED_RATE
        assert len(store.entries("ch-1")) == 1

    def test_wrong_key_rejected_store_unchanged(self):
        store = make_store()
        result = store.ingest("ch-1", "WRONG", 0.0, (40.0, 22.0, 45.0))
        assert result.status == REJECTED_AUTH
        assert store.entries("ch-1") == []

    def test_unknown_channel(self):
        store = make_store()
        with pytest.raises(ChannelNotFound):
            store.ingest("nope", "KEY", 0.0, (1.0, 2.0, 3.0))

    def test_counters_reconcile(self):
        store = make_store()
        outcomes = [
            store.ingest("ch-1", "KEY", 0.0, (1, 2, 3)),
            store.ingest("ch-1", "BAD", 1.0, (1, 2, 3)),
            store.ingest("ch-1", "KEY", 2.0, (1, 2, 3)),
            store.ingest("ch-1", "KEY", 20.0, (1, 2, 3)),
        ]
        counters = store.counters("ch-1")
        assert counters == {"accepted": 2, "rejected_auth": 1,
                            "rejected_rate": 1}
        assert sum(counters.values()) == len(outcomes)

    def test_channel_invariants(self):
        with pytest.raises(ConfigurationError):
            Channel("c", "", FIELDS)
        with pytest.raises(ConfigurationError):
            Channel("c", "k", ("a",) * 9)
        with pytest.raises(ConfigurationError):
            Channel("c", "k", ("a", "a"))


class TestQuery:
    def test_empty_store_empty_result(self):
        assert make_store().entries("ch-1") == []

    def test_full_range_returns_everything(self):
        store = make_store(min_interval=0.0)
        for i in range(5):
            store.ingest("ch-1", "KEY", float(i * 100), (i, i, i))
        entries = store.entries("ch-1")
        assert [e.entry_id for e in entries] == [1, 2, 3, 4, 5]

    @given(st.lists(st.tuples(st.floats(0, 1e5), st.booleans()),
                    min_size=0, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_query_matches_flat_log_oracle(self, attempts):
        # oracle: an attempt is stored iff its key is good and it comes at
        # least min_update_interval_s after the last stored one
        store = make_store(min_interval=10.0)
        flat_log, last = [], None
        for clock, good_key in sorted(attempts):
            key = "KEY" if good_key else "BAD"
            store.ingest("ch-1", key, clock, (1.0, 2.0, 3.0))
            if good_key and (last is None or clock - last >= 10.0):
                flat_log.append(clock)
                last = clock
        entries = store.entries("ch-1")
        assert [e.created_at_s for e in entries] == flat_log
        assert [e.entry_id for e in entries] == list(
            range(1, len(flat_log) + 1))

    def test_repeated_queries_stable(self):
        store = make_store(min_interval=0.0)
        for i in range(10):
            store.ingest("ch-1", "KEY", float(i), (i, i, i))
        first = store.entries("ch-1")
        assert store.entries("ch-1") == first
        first.clear()  # a caller's copy, not the store's own list
        assert len(store.entries("ch-1")) == 10


class TestPersistence:
    def test_empty_export_header_only(self, tmp_path):
        store = make_store()
        path = tmp_path / "chan.csv"
        assert store.export_csv("ch-1", path) == 0
        assert path.read_text().splitlines() == [
            "created_at,entry_id,moisture,temp,humidity"]

    def test_export_row_count(self, tmp_path):
        store = make_store(min_interval=0.0)
        for i in range(3):
            store.ingest("ch-1", "KEY", float(i), (i, i, i))
        assert store.export_csv("ch-1", tmp_path / "chan.csv") == 3

    def test_round_trip_import_equals_store(self, tmp_path):
        store = make_store(min_interval=0.0)
        for i in range(20):
            store.ingest("ch-1", "KEY", i * 300.0,
                         (40.0 + i * 0.1, 22.0, 45.5))
        path = tmp_path / "chan.csv"
        store.export_csv("ch-1", path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["created_at", "entry_id", *FIELDS]
        imported = [ChannelEntry(entry_id=int(row[1]),
                                 created_at_s=float(row[0]),
                                 values=tuple(float(v) for v in row[2:]))
                    for row in rows[1:]]
        assert imported == store.entries("ch-1")

    def test_snapshot_jsonl_one_line_per_entry(self, tmp_path):
        store = make_store(min_interval=0.0)
        for i in range(4):
            store.ingest("ch-1", "KEY", float(i), (i, i, i))
        path = tmp_path / "chan.jsonl"
        assert store.snapshot_jsonl("ch-1", path) == 4
        assert len(path.read_text().splitlines()) == 4
