"""Channel store: auth, rate limiting, queries, persistence round trips, and
the batch path against a per-record reference store."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrisim.errors import ConfigurationError, InputError
from agrisim.ingest import (
    ACCEPTED,
    REJECTED_AUTH,
    REJECTED_RATE,
    Channel,
    ChannelNotFound,
    ChannelStore,
)
from agrisim.rows import SLICE_ROWS as _SLICE_ROWS
from agrisim.transport import PAYLOAD_FIELDS as FIELDS


def make_store(min_interval=15.0):
    return ChannelStore(Channel("ch-1", "KEY",
                                min_update_interval_s=min_interval))


def stored(store):
    """The accepted entries as the CSV export carries them: the creation
    times (entry id k + 1 at index k) and a fields x entries value array."""
    csv_fh = io.StringIO()
    n = store.export(store.channel.channel_id, csv_fh, io.StringIO())
    header, *rows = csv.reader(io.StringIO(csv_fh.getvalue(), newline=""))
    assert [row[1] for row in rows] == [str(i) for i in range(1, n + 1)]
    times = np.array([int(row[0]) for row in rows], dtype=np.int64)
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    return times, values.reshape(n, len(header) - 2).T


def export_files(store, channel_id, csv_path, jsonl_path):
    """``store.export`` into two files opened as UTF-8 text with no newline
    translation, as a run directory's artifacts are written."""
    with csv_path.open("w", encoding="utf-8", newline="") as csv_fh, \
            jsonl_path.open("w", encoding="utf-8", newline="") as jsonl_fh:
        return store.export(channel_id, csv_fh, jsonl_fh)


class ReferenceChannel:
    """The per-record store the batch path replaced: one entry tuple per
    accepted row, one ``csv.writer`` row and one ``json.dumps`` per entry."""

    def __init__(self, channel: Channel):
        self.channel = channel
        self.entries = []  # (entry_id, created_at, values)
        self.last = None
        self.counters = {"accepted": 0, "rejected_auth": 0,
                         "rejected_rate": 0}

    def ingest(self, key, timestamp_s, values) -> str:
        if key != self.channel.write_key:
            self.counters["rejected_auth"] += 1
            return REJECTED_AUTH
        if (self.last is not None and timestamp_s - self.last
                < self.channel.min_update_interval_s):
            self.counters["rejected_rate"] += 1
            return REJECTED_RATE
        self.entries.append((len(self.entries) + 1, timestamp_s,
                             tuple(float(v) for v in values)))
        self.last = timestamp_s
        self.counters["accepted"] += 1
        return ACCEPTED

    def export_csv(self, path):
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["created_at", "entry_id", *FIELDS])
            for entry_id, t, values in self.entries:
                writer.writerow([repr(t), entry_id, *map(repr, values)])

    def snapshot_jsonl(self, path):
        with path.open("w") as fh:
            for entry_id, t, values in self.entries:
                fh.write(json.dumps({
                    "entry_id": entry_id, "created_at": t,
                    "values": dict(zip(FIELDS, values)),
                }, sort_keys=True) + "\n")


class TestIngest:
    def test_first_write_accepted_with_entry_id_1(self, tmp_path):
        store = make_store()
        result = store.ingest("ch-1", "KEY", 0, (40.0, 22.0, 45.0))
        assert result.status == ACCEPTED
        export_files(store, "ch-1", tmp_path / "chan.csv",
                     tmp_path / "chan.jsonl")
        [line] = (tmp_path / "chan.jsonl").read_text().splitlines()
        assert json.loads(line)["entry_id"] == 1

    def test_write_inside_interval_throttled(self):
        store = make_store()
        store.ingest("ch-1", "KEY", 0, (40.0, 22.0, 45.0))
        result = store.ingest("ch-1", "KEY", 5, (41.0, 22.0, 45.0))
        assert result.status == REJECTED_RATE
        times, values = stored(store)
        assert times.tolist() == [0]
        assert values.tolist() == [[40.0], [22.0], [45.0]]

    def test_wrong_key_rejected_store_unchanged(self):
        store = make_store()
        result = store.ingest("ch-1", "WRONG", 0, (40.0, 22.0, 45.0))
        assert result.status == REJECTED_AUTH
        times, values = stored(store)
        assert len(times) == 0 and values.shape == (len(FIELDS), 0)

    @pytest.mark.parametrize("method", ["ingest_batch", "ingest", "counters",
                                        "export"])
    def test_unknown_channel(self, method):
        csv_fh, jsonl_fh = io.StringIO(), io.StringIO()
        args = {"ingest_batch": ("KEY", [300], [[1.0], [2.0], [3.0]]),
                "ingest": ("KEY", 300, (1.0, 2.0, 3.0)),
                "counters": (),
                "export": (csv_fh, jsonl_fh)}[method]
        store = make_store()
        store.ingest("ch-1", "KEY", 0, (40.0, 22.0, 45.0))
        with pytest.raises(ChannelNotFound, match="nope"):
            getattr(store, method)("nope", *args)
        # the refused request stores, counts and writes nothing
        assert store.counters("ch-1") == {"accepted": 1, "rejected_auth": 0,
                                          "rejected_rate": 0}
        assert store.last_accepted_s == 0
        assert stored(store)[0].tolist() == [0]
        assert csv_fh.getvalue() == jsonl_fh.getvalue() == ""

    def test_counters_reconcile(self):
        store = make_store()
        outcomes = [
            store.ingest("ch-1", "KEY", 0, (1, 2, 3)),
            store.ingest("ch-1", "BAD", 1, (1, 2, 3)),
            store.ingest("ch-1", "KEY", 2, (1, 2, 3)),
            store.ingest("ch-1", "KEY", 20, (1, 2, 3)),
        ]
        counters = store.counters("ch-1")
        assert counters == {"accepted": 2, "rejected_auth": 1,
                            "rejected_rate": 1}
        assert sum(counters.values()) == len(outcomes)

    def test_channel_invariants(self):
        with pytest.raises(ConfigurationError, match="write_key"):
            Channel("c", "")

    @pytest.mark.parametrize("limit", [-5.0, -1, float("nan"), float("inf"),
                                       float("-inf"), 2**1024])
    def test_rate_limit_finite_and_non_negative(self, limit):
        with pytest.raises(ConfigurationError, match="min_update_interval_s"):
            Channel("c", "k", min_update_interval_s=limit)

    def test_decreasing_time_rejected_store_unchanged(self):
        store = make_store()
        store.ingest_batch("ch-1", "KEY", [0, 300], [[1.0, 2.0]] * 3)
        with pytest.raises(InputError, match="time order"):
            store.ingest_batch("ch-1", "KEY", [600, 900, 899],
                               [[3.0, 4.0, 5.0]] * 3)
        assert store.counters("ch-1") == {"accepted": 2, "rejected_auth": 0,
                                          "rejected_rate": 0}
        assert stored(store)[0].tolist() == [0, 300]
        # the carried last accepted time did not move either
        assert store.ingest_batch("ch-1", "KEY", [305, 315],
                                  [[3.0, 4.0]] * 3).tolist() == [False, True]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_value_or_time_rejected(self, bad):
        # JSON has no NaN or Infinity, so such a row could not be exported;
        # a non-finite time is not whole seconds
        store = make_store(min_interval=0.0)
        with pytest.raises(InputError, match="non-finite"):
            store.ingest("ch-1", "KEY", 0, (40.0, bad, 45.0))
        with pytest.raises(InputError, match="whole seconds"):
            store.ingest("ch-1", "KEY", bad, (40.0, 22.0, 45.0))
        with pytest.raises(InputError, match="non-finite"):
            store.ingest_batch("ch-1", "KEY", [0, 300],
                               [[40.0, 41.0], [22.0, 22.0], [45.0, bad]])
        assert store.counters("ch-1") == {"accepted": 0, "rejected_auth": 0,
                                          "rejected_rate": 0}
        assert len(stored(store)[0]) == 0

    @pytest.mark.parametrize("columns", [
        [[40.0], [22.0]],                  # too few fields
        [[40.0], [22.0], [45.0], [1.0]],   # too many fields
        [[40.0, 41.0], [22.0, 22.0], [45.0, 45.0]],  # longer than the times
        [[40.0], [22.0, 23.0], [45.0]],    # ragged
        [[{}], [22.0], [45.0]],            # not a number
    ])
    def test_malformed_columns_rejected(self, columns):
        store = make_store()
        with pytest.raises(InputError):
            store.ingest_batch("ch-1", "KEY", [0], columns)
        assert store.counters("ch-1")["accepted"] == 0

    def test_rate_limit_carries_across_batches(self):
        # 600 s limit on 300 s stamps: every other row, also at the seam
        store = make_store(min_interval=600.0)
        first = store.ingest_batch("ch-1", "KEY", [300, 600, 900],
                                   [[1.0] * 3] * 3)
        second = store.ingest_batch("ch-1", "KEY", [1200, 1500, 1800],
                                    [[2.0] * 3] * 3)
        assert first.tolist() == [True, False, True]
        assert second.tolist() == [False, True, False]
        assert stored(store)[0].tolist() == [300, 900, 1500]
        assert store.counters("ch-1") == {"accepted": 3, "rejected_auth": 0,
                                          "rejected_rate": 3}

    def test_wrong_key_rejects_the_whole_batch(self):
        store = make_store()
        assert store.ingest_batch("ch-1", "BAD", [0, 300],
                                  [[1.0, 2.0]] * 3) is None
        assert store.counters("ch-1")["rejected_auth"] == 2

    @pytest.mark.parametrize("times, columns, message", [
        ([0, 300], [[1.0]], "expected 3 value columns"),  # 1 column, 1 row
        ([0, 300], [[1.0, 2.0]], "expected 3 value columns"),  # 1 of 2 rows
        ([300, 0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], "time order"),
        ([0, 300], [[1.0, 2.0], [3.0, float("nan")], [5.0, 6.0]],
         "non-finite"),
    ], ids=["short", "few", "order", "nan"])
    @pytest.mark.parametrize("key", ["KEY", "BAD"])
    def test_malformed_batch_raises_whatever_its_key(self, times, columns,
                                                     message, key):
        store = ChannelStore(Channel("c", "KEY"))
        with pytest.raises(InputError, match=message):
            store.ingest_batch("c", key, times, columns)
        assert store.counters("c") == {"accepted": 0, "rejected_auth": 0,
                                       "rejected_rate": 0}

    @pytest.mark.parametrize("times", [
        np.array([0.0, 300.0]),                     # float, if whole
        [0, 300.5],
        np.array([0, 2**63], np.uint64),            # past int64
        [0, 2**64],                                 # an object column
        np.array([True, False]),
    ], ids=["float", "fraction", "uint64", "object", "bool"])
    def test_times_not_whole_int64_seconds_rejected(self, times):
        store = make_store()
        store.ingest_batch("ch-1", "KEY", [0], [[1.0]] * 3)
        for key in ("KEY", "BAD"):  # raised before the key is checked
            with pytest.raises(InputError, match="whole seconds|int64"):
                store.ingest_batch("ch-1", key, times, [[2.0, 3.0]] * 3)
        with pytest.raises(InputError, match="whole seconds|int64"):
            store.ingest("ch-1", "KEY", times[-1], (2.0, 3.0, 4.0))
        assert store.counters("ch-1") == {"accepted": 1, "rejected_auth": 0,
                                          "rejected_rate": 0}
        assert stored(store)[0].tolist() == [0]
        assert store.last_accepted_s == 0

    def test_empty_batch_of_any_dtype_accepted(self):
        store = make_store()
        for times in ([], np.empty(0), np.empty(0, np.uint64)):
            assert store.ingest_batch("ch-1", "KEY", times,
                                      [[]] * 3).tolist() == []
        assert sum(store.counters("ch-1").values()) == 0
        assert len(stored(store)[0]) == 0 and store.last_accepted_s is None

    def test_unsigned_times_in_int64_range_accepted(self):
        store = make_store()
        assert store.ingest_batch("ch-1", "KEY",
                                  np.array([0, 10, 2**63 - 1], np.uint64),
                                  [[1.0] * 3] * 3).tolist() == [
            True, False, True]
        assert stored(store)[0].tolist() == [0, 2**63 - 1]
        assert type(store.last_accepted_s) is int


class TestQuery:
    def test_empty_store_empty_result(self):
        times, values = stored(make_store())
        assert len(times) == 0 and values.shape == (len(FIELDS), 0)

    def test_full_range_returns_everything(self):
        store = make_store(min_interval=0.0)
        for i in range(5):
            store.ingest("ch-1", "KEY", i * 100, (i, i, i))
        times, values = stored(store)
        assert times.tolist() == [0, 100, 200, 300, 400]
        assert values.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0]] * 3

    @given(st.lists(st.tuples(st.integers(0, 10**5), st.booleans()),
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
        times, values = stored(store)
        assert times.tolist() == flat_log
        assert values.shape == (len(FIELDS), len(flat_log))

    def test_repeated_queries_stable(self, tmp_path):
        store = make_store(min_interval=0.0)
        for i in range(10):
            store.ingest("ch-1", "KEY", i, (i, i, i))
        for run in ("first", "again"):
            assert export_files(store, "ch-1", tmp_path / f"{run}.csv",
                                tmp_path / f"{run}.jsonl") == 10
        for suffix in ("csv", "jsonl"):
            assert (tmp_path / f"first.{suffix}").read_bytes() == \
                (tmp_path / f"again.{suffix}").read_bytes()
        assert stored(store)[0].tolist() == list(range(10))


def _batches(width):
    """Batches of rows on a shared clock: write key, clock steps, and one
    row of values per step."""
    value = st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 22.5, -40.0, 0.1]) | \
        st.floats(-1e17, 1e17, allow_nan=False, allow_infinity=False)
    step = st.sampled_from([0, 1, 150, 300, 599, 600, 900])
    return st.lists(st.tuples(
        st.booleans() | st.just(True),
        st.lists(st.tuples(step, st.lists(value, min_size=width,
                                          max_size=width)),
                 max_size=12)), max_size=5)


class TestBatchMatchesReference:
    @given(data=st.data(), limit=st.sampled_from([0.0, 15.0, 300.0, 600.0]))
    @settings(max_examples=200, deadline=None)
    def test_counters_columns_and_export_bytes(self, tmp_path_factory, data,
                                               limit):
        channel = Channel("ch", "KEY", min_update_interval_s=limit)
        batch_store, row_store = ChannelStore(channel), ChannelStore(channel)
        reference = ReferenceChannel(channel)

        clock = 0
        for good_key, rows in data.draw(_batches(len(FIELDS))):
            key = "KEY" if good_key else "BAD"
            times = []
            for step, _ in rows:
                clock += step
                times.append(clock)
            columns = [[values[j] for _, values in rows]
                       for j in range(len(FIELDS))]
            expected = [reference.ingest(key, t, values)
                        for t, (_, values) in zip(times, rows)]
            accepted = batch_store.ingest_batch(
                "ch", key, np.array(times, np.int64), columns)
            if good_key:
                assert accepted.tolist() == [s == ACCEPTED for s in expected]
            else:
                assert accepted is None
            assert [row_store.ingest("ch", key, t, values).status
                    for t, (_, values) in zip(times, rows)] == expected

        ref_times = [t for _, t, _ in reference.entries]
        ref_values = np.array([v for _, _, v in reference.entries],
                              dtype=np.float64).reshape(-1, len(FIELDS)).T
        out = tmp_path_factory.mktemp("export")
        reference.export_csv(out / "ref.csv")
        reference.snapshot_jsonl(out / "ref.jsonl")
        for store in (batch_store, row_store):
            assert store.counters("ch") == reference.counters
            times, values = stored(store)
            assert times.tolist() == ref_times
            assert values.shape == ref_values.shape
            assert values.tobytes() == np.ascontiguousarray(
                ref_values).tobytes()
            n = len(ref_times)
            assert export_files(store, "ch", out / "chan.csv",
                                out / "chan.jsonl") == n
            assert (out / "chan.csv").read_bytes() == \
                (out / "ref.csv").read_bytes()
            assert (out / "chan.jsonl").read_bytes() == \
                (out / "ref.jsonl").read_bytes()

    def test_long_batches_cross_export_slices(self, tmp_path):
        # the batches drawn above never fill one export slice; these cross
        # three slice boundaries, and a second batch follows
        channel = Channel("ch", "KEY", min_update_interval_s=0.0)
        store = ChannelStore(channel)
        reference = ReferenceChannel(channel)
        special = [0.0, -0.0, 0.0, 1e16, 1e-7, 5e-324, -0.0, 22.5, 22.5]
        rng = np.random.default_rng(7)
        n_first, n_second = 3 * _SLICE_ROWS + 1, _SLICE_ROWS + 2
        for times in (np.arange(1, n_first + 1, dtype=np.int64) * 300,
                      (n_first + 1 + np.arange(n_second)) * 300 + 7):
            n = len(times)
            columns = [np.resize(special, n), rng.uniform(-40, 100, n),
                       np.round(rng.uniform(20, 30, n), 1)]
            assert store.ingest_batch("ch", "KEY", times, columns).all()
            for t, *values in zip(times.tolist(), *columns):
                assert reference.ingest("KEY", t, values) == ACCEPTED

        total = n_first + n_second
        assert export_files(store, "ch", tmp_path / "chan.csv",
                            tmp_path / "chan.jsonl") == total
        reference.export_csv(tmp_path / "ref.csv")
        reference.snapshot_jsonl(tmp_path / "ref.jsonl")
        for suffix in ("csv", "jsonl"):
            assert (tmp_path / f"chan.{suffix}").read_bytes() == \
                (tmp_path / f"ref.{suffix}").read_bytes()
        with (tmp_path / "chan.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1] for row in rows] == \
            [str(i) for i in range(1, total + 1)]
        assert (rows[0][0], rows[-1][0]) == ("300", str(total * 300 + 7))
        assert {row[2] for row in rows} == set(map(repr, special))


def _offer(limit, batches):
    """Offer each batch to a store and, row by row, to the reference: the
    accepted masks and the carried last accepted time, type included, agree
    after every batch."""
    channel = Channel("ch", "KEY", min_update_interval_s=limit)
    store = ChannelStore(channel)
    reference = ReferenceChannel(channel)
    for times in batches:
        times = np.asarray(times)
        expected = [reference.ingest("KEY", t, (0.0,) * 3) == ACCEPTED
                    for t in times.tolist()]
        accepted = store.ingest_batch("ch", "KEY", times,
                                      [np.zeros(len(times))] * 3)
        assert accepted.tolist() == expected
        last = store.last_accepted_s
        assert (type(last), last) == (type(reference.last), reference.last)
    assert store.counters("ch") == reference.counters


def _sum_rule_differs(times, limit) -> bool:
    """Whether ``t[j] >= t[i] + limit`` and ``t[j] - t[i] >= limit``
    disagree on some pair i < j of the batch."""
    later = np.triu(np.ones((len(times), len(times)), dtype=bool), 1)
    by_sum = times[None, :] >= times[:, None] + limit
    by_difference = times[None, :] - times[:, None] >= limit
    return bool(np.any((by_sum != by_difference) & later))


class TestRateLimitMatchesLoop:
    """The vectorized rate limit against the per-row reference, on the
    inputs where a shortcut would go wrong."""

    @pytest.mark.parametrize("limit", [0.0, 15.0, 599.9999999, 600.0])
    @pytest.mark.parametrize("signed", [True, False])
    def test_long_batches(self, limit, signed):
        # an unsigned column in the int64 range is taken as int64
        steps = np.random.default_rng(3).choice(
            [0, 1, 14, 15, 150, 300, 599, 600, 601, 900], 6000)
        times = np.cumsum(steps).astype(np.int64 if signed else np.uint64)
        _offer(limit, [times[:4000], times[4000:]])

    def test_duplicate_times(self):
        _offer(0.0, [[5, 5, 5, 7, 7], [7, 7, 8], [6, 8, 8, 8]])
        _offer(15.0, [[0, 0, 15, 15, 15, 29, 30, 30], [30, 45, 45]])

    @pytest.mark.parametrize("limit", [0.1, 0.5, 299.5, 599.9999999])
    def test_non_integral_limit_on_int_times(self, limit):
        steps = np.random.default_rng(4).choice([0, 1, 299, 300, 600], 3000)
        times = np.cumsum(steps)
        _offer(limit, [times[:1000], times[1000:]])

    @pytest.mark.parametrize("base", [2.0**53, 1e17, -1e17])
    @pytest.mark.parametrize("limit", [0.1, 15.0, 599.9999999, 600.0])
    def test_float_times_where_the_sum_rounds(self, base, limit):
        # this far from 0 a float clock ticks in whole seconds; its times
        # come as int64, 0, 1 or 2 units in the last place apart, so every
        # difference near the limit occurs, and they are compared exactly
        # where ``t + limit`` in float64 rounds
        ulp = int(np.spacing(abs(base)))
        times = int(base) + ulp * np.cumsum(
            np.random.default_rng(5).choice([0, 1, 2], 800))
        if 0 < limit % ulp <= ulp / 2:  # t + limit can round down
            assert _sum_rule_differs(times.astype(np.float64), limit)
        _offer(limit, [times[:300], times[300:]])

    def test_int_and_float_batches_mixed(self):
        # a float batch between int batches raises and moves nothing: the
        # int batches agree with the reference as if it was never offered
        channel = Channel("ch", "KEY", min_update_interval_s=1.5)
        store = ChannelStore(channel)
        reference = ReferenceChannel(channel)
        for times in ([2**53 + 1], [2.0**53 + 2, 2.0**53 + 4],
                      [2**53 + 3, 2**53 + 5, 2**53 + 7]):
            times = np.array(times)
            columns = [np.zeros(len(times))] * 3
            if times.dtype.kind == "f":
                with pytest.raises(InputError, match="whole seconds"):
                    store.ingest_batch("ch", "KEY", times, columns)
            else:
                assert store.ingest_batch(
                    "ch", "KEY", times, columns).tolist() == [
                    reference.ingest("KEY", t, (0.0,) * 3) == ACCEPTED
                    for t in times.tolist()]
            assert store.counters("ch") == reference.counters
            assert store.last_accepted_s == reference.last
        # an int limit is exact, also where float64 has no odd integers
        _offer(2**53 + 1, [np.array([0, 2**53, 2**53 + 1, 2**53 + 2])])
        # each batch starts before the carried last accepted time
        _offer(2.0, [np.array([0, 2]), np.array([1, 2, 3, 4]),
                     np.array([3, 5, 6, 7]), np.array([4, 5, 8, 9])])

    def test_huge_limit_and_int64_edges(self):
        lo, hi = -2**63, 2**63 - 1
        edges = np.array([lo, lo, -1, 0, hi], np.int64)
        # 0 - lo and hi - lo wrap around in int64
        for limit in (0, 2.0**63, 2.0**64 - 2048, 2**64 - 1, 2.0**64, 1e308):
            _offer(limit, [edges, np.array([hi], np.int64)])
        _offer(2**64 - 1, [np.array([lo, hi], np.int64)])
        _offer(2.0**63, [np.array([hi], np.int64), np.array([lo, -1, 0, 1])])


class TestPersistence:
    def test_empty_export_header_only(self, tmp_path):
        store = make_store()
        path = tmp_path / "chan.csv"
        assert export_files(store, "ch-1", path, tmp_path / "chan.jsonl") == 0
        assert path.read_text().splitlines() == [
            "created_at,entry_id,moisture,temp,humidity"]
        assert (tmp_path / "chan.jsonl").read_text() == ""

    def test_export_holds_one_slice_of_text(self):
        # a season's channel: 16,941 rows of distinct moisture values and
        # air readings in tenths; all of its text at once takes over 4 MB
        n = 16_941
        rng = np.random.default_rng(42)
        store = make_store(min_interval=0.0)
        store.ingest_batch("ch-1", "KEY", 300 * np.arange(1, n + 1), [
            rng.uniform(0.0, 100.0, n), np.round(rng.uniform(15, 35, n), 1),
            np.round(rng.uniform(30, 60, n), 1)])

        class Null:
            def write(self, text):
                return len(text)

        tracemalloc.start()
        try:
            assert store.export("ch-1", Null(), Null()) == n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_export_row_count(self, tmp_path):
        store = make_store(min_interval=0.0)
        for i in range(3):
            store.ingest("ch-1", "KEY", i, (i, i, i))
        assert export_files(store, "ch-1", tmp_path / "chan.csv",
                            tmp_path / "chan.jsonl") == 3

    def test_round_trip_import_equals_store(self, tmp_path):
        store = make_store(min_interval=0.0)
        for i in range(20):
            store.ingest("ch-1", "KEY", i * 300,
                         (40.0 + i * 0.1, 22.0, 45.5))
        path = tmp_path / "chan.csv"
        export_files(store, "ch-1", path, tmp_path / "chan.jsonl")
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["created_at", "entry_id", *FIELDS]
        times, values = stored(store)
        assert [int(row[1]) for row in rows[1:]] == list(range(1, 21))
        assert [int(row[0]) for row in rows[1:]] == times.tolist()
        assert [[float(v) for v in row[2:]] for row in rows[1:]] == \
            values.T.tolist()

    def test_snapshot_jsonl_one_line_per_entry(self, tmp_path):
        store = make_store(min_interval=0.0)
        for i in range(4):
            store.ingest("ch-1", "KEY", i, (i, i, i))
        path = tmp_path / "chan.jsonl"
        assert export_files(store, "ch-1", tmp_path / "chan.csv", path) == 4
        assert len(path.read_text().splitlines()) == 4
