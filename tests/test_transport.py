"""Transport: delivery under loss, QoS retransmission, energy and latency
accounting."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrisim import decision, fieldsim, transport
from agrisim.errors import ConfigurationError, InputError
from agrisim.fieldsim import generate_weather
from agrisim.pipeline import packets_from_samples
from agrisim.scenario import default_scenario_path, parse_scenario
from agrisim.transport import (
    PAYLOAD_FIELDS,
    PUBSUB,
    REQRESP,
    EnergyModel,
    LinkModel,
    TelemetryPacket,
    TransportStats,
    energy_efficiency_pct,
    run_session,
)

SEASON_PACKETS = 17_280
TOPIC = "farm/field-1/telemetry"


def _packets(n):
    return [TelemetryPacket(sequence_no=i + 1, timestamp_s=300.0 * i,
                            moisture_pct=40.0, temp_c=22.0, humidity_pct=45.0)
            for i in range(n)]


def payload(packet) -> str:
    """The wire text of one packet, the oracle for ``run_session``'s byte
    count: comma-separated field=value pairs in ``PAYLOAD_FIELDS`` order,
    one decimal per value."""
    values = (packet.moisture_pct, packet.temp_c, packet.humidity_pct)
    return ",".join(f"{name}={v:.1f}"
                    for name, v in zip(PAYLOAD_FIELDS, values))


class TestPacket:
    def test_wire_payload_golden(self):
        p = TelemetryPacket(sequence_no=1, timestamp_s=0.0, moisture_pct=40.25,
                            temp_c=22.04, humidity_pct=45.0)
        assert payload(p) == "moisture=40.2,temp=22.0,humidity=45.0"

    def test_topic_convention(self):
        assert _packets(1)[0].topic == "farm/field-1/telemetry"

    def test_slotted_record_has_no_instance_dict(self):
        assert not hasattr(_packets(1)[0], "__dict__")

    def test_fields_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _packets(1)[0].moisture_pct = 41.0

    @pytest.mark.parametrize("round_trip", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    def test_copies_compare_and_hash_equal(self, round_trip):
        p = _packets(1)[0]
        q = round_trip(p)
        assert q == p and hash(q) == hash(p) and payload(q) == payload(p)

    def test_replace_and_asdict(self):
        p = _packets(1)[0]
        q = dataclasses.replace(p, moisture_pct=40.25)
        assert payload(q) == "moisture=40.2,temp=22.0,humidity=45.0"
        assert dataclasses.asdict(q) == {
            "sequence_no": 1, "timestamp_s": 0.0, "moisture_pct": 40.25,
            "temp_c": 22.0, "humidity_pct": 45.0,
            "topic": "farm/field-1/telemetry"}


def _outcomes(packets, protocol, qos, link, energy, rng, days=0.0):
    """``run_session``'s stats and its per-packet (attempts, delivered)
    arrays, which ``on_result`` receives in one call."""
    seen = []
    stats = run_session(packets, protocol, qos, link, energy, rng, days=days,
                        on_result=lambda a, d: seen.append((a, d)))
    (attempts, delivered), = seen
    return stats, attempts, delivered


def reference_session(packets, protocol, qos, link, energy, rng, days):
    """The per-packet delivery loop: one packet, then one trial, at a time."""
    max_attempts = 1 if qos == 0 else 1 + link.max_retries
    per_msg = energy.energy_per_message_mwh[protocol]
    stats = TransportStats()
    attempts, delivered = [], []
    for packet in packets:
        tries, ok = 0, False
        while tries < max_attempts and not ok:
            tries += 1
            ok = rng.random() >= link.loss_prob
        stats.attempted += 1
        stats.retransmissions += tries - 1
        stats.bytes_sent += len(payload(packet).encode("ascii")) * tries
        stats.energy_mwh += per_msg * tries
        if ok:
            stats.delivered += 1
            stats.latency_sum_s += link.latency_s[protocol]
        attempts.append(tries)
        delivered.append(ok)
    stats.energy_mwh += energy.idle_mwh_per_day * days
    return stats, attempts, delivered


# values whose one-decimal text differs in length from their neighbours': the
# two zeros ("-0.0" is 4 bytes), a negative that rounds to "-0.0", the float
# neighbours of 9.95 and 99.95 (one side gains a digit), and the range's ends
PAYLOAD_VALUES = [
    0.0, -0.0, -0.04, 0.04, 22.0, 45.0, -12.3, 100.0, -100.0,
    *(float(np.nextafter(v, to)) for v in (9.95, 99.95)
      for to in (0.0, math.inf)), 9.95, 99.95,
]
payload_value = st.sampled_from(PAYLOAD_VALUES) | st.floats(-100.0, 100.0)
# a season of readings: the edge values in turn as moisture, a temperature
# ramp from 0 to 100 across 9.95 and 99.95, and a constant humidity
SEASON_VALUES = [(PAYLOAD_VALUES[i % len(PAYLOAD_VALUES)], 0.1 * (i % 1001),
                  45.0) for i in range(SEASON_PACKETS)]


def _season_examples(test):
    """``test`` with season-length sessions as explicit examples: the
    many-block sessions that ``run_season`` sends, with and without
    retries, from a lossless to a nearly dead link. With 5 retries at loss
    0.02 no block loses a packet; with 1 retry at loss 0.2 the first block
    does."""
    for loss in (0.0, 0.02, 0.2, 0.95):
        for max_retries in (0, 1, 5):
            test = example(loss=loss, qos=1, max_retries=max_retries,
                           seed=42, protocol=PUBSUB,
                           per_msg=850.0 / SEASON_PACKETS,
                           idle=0.5, days=60, latency=3.0,
                           values=SEASON_VALUES)(test)
    return test


class TestBatchedSession:
    @given(loss=st.floats(0.0, 0.99), qos=st.sampled_from([0, 1]),
           max_retries=st.integers(0, 6), seed=st.integers(0, 2 ** 31 - 1),
           protocol=st.sampled_from([PUBSUB, REQRESP]),
           per_msg=st.floats(1e-4, 1.0), idle=st.floats(0.0, 5.0),
           days=st.integers(0, 90), latency=st.floats(0.1, 20.0),
           values=st.lists(st.tuples(payload_value, payload_value,
                                     payload_value), max_size=500))
    @_season_examples
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_packet_loop(self, loss, qos, max_retries, seed,
                                         protocol, per_msg, idle, days,
                                         latency, values):
        packets = [TelemetryPacket(sequence_no=i + 1, timestamp_s=300.0 * i,
                                   moisture_pct=m, temp_c=t, humidity_pct=h)
                   for i, (m, t, h) in enumerate(values)]
        samples = decision.Samples(
            300 * np.arange(len(values)),
            *np.array(values, dtype=np.float64).reshape(-1, 3).T)
        link = LinkModel(loss_prob=loss, max_retries=max_retries,
                         latency_s={PUBSUB: latency, REQRESP: latency})
        energy = EnergyModel(
            energy_per_message_mwh={PUBSUB: per_msg, REQRESP: per_msg},
            idle_mwh_per_day=idle)
        ref_rng = np.random.default_rng(seed)
        want, want_attempts, want_delivered = reference_session(
            packets, protocol, qos, link, energy, ref_rng, days)
        for readings in (packets, samples):
            rng = np.random.default_rng(seed)
            got, attempts, delivered = _outcomes(readings, protocol, qos,
                                                 link, energy, rng, days)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
            assert [type(v) for v in dataclasses.asdict(got).values()] == \
                [type(v) for v in dataclasses.asdict(want).values()]
            assert attempts.tolist() == want_attempts
            assert delivered.tolist() == want_delivered
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _width_edges():
    """Each tenth and each halfway point in [-100, 100] and their float
    neighbours inside it, the signed zeros, negatives that print as "-0.0"
    and the smallest magnitudes."""
    points = [k / 10 for k in range(-1000, 1001)]
    points += [(2 * k + 1) / 20 for k in range(-1000, 1000)]
    values = [0.0, -0.0, -0.04, -0.05, 5e-324, -5e-324, 100.0, -100.0]
    for v in points:
        values += [v, math.nextafter(v, -100.0), math.nextafter(v, 100.0)]
    return values


def _widths_and_oracle(values):
    """``_payload_bytes`` of three columns made from ``values``, and the
    length of each row's ``payload`` text."""
    column = np.array(values, dtype=np.float64)
    samples = decision.Samples(np.zeros(len(values), dtype=np.int64), column,
                               np.roll(column, 1), -column)
    columns = [samples.moisture_pct, samples.temp_c, samples.humidity_pct]
    return (transport._payload_bytes(columns).tolist(),
            [len(payload(p)) for p in packets_from_samples(samples, TOPIC)])


class TestPayloadWidths:
    def test_matches_python_formatting_on_every_edge(self):
        widths, oracle = _widths_and_oracle(_width_edges())
        assert widths == oracle

    @given(st.lists(payload_value, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_matches_python_formatting(self, values):
        widths, oracle = _widths_and_oracle(values)
        assert widths == oracle


class TestReadingRange:
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, math.nextafter(100.0, math.inf),
        -math.nextafter(100.0, math.inf), 1e300])
    def test_reading_out_of_range_rejected_before_any_trial(self, value):
        for field in range(3):
            rows = [[40.0, 22.0, 45.0] for _ in range(3)]
            rows[1][field] = value
            samples = decision.Samples(300 * np.arange(3),
                                       *np.array(rows).T)
            packets = packets_from_samples(samples, TOPIC)
            for readings in (samples, packets):
                rng = np.random.default_rng(7)
                state = rng.bit_generator.state
                with pytest.raises(InputError):
                    run_session(readings, PUBSUB, 1, LinkModel(),
                                EnergyModel(), rng)
                assert rng.bit_generator.state == state

    @pytest.mark.parametrize("times, values", [
        (300 * np.arange(3), [[40.0, 22.0]] * 3),
        (300 * np.arange(2), [[40.0, 22.0, 45.0]] * 3),
        (300 * np.arange(3), [[[40.0]] * 3, [22.0] * 3, [45.0] * 3]),
        (300 * np.arange(3).reshape(3, 1), [[40.0, 22.0, 45.0]] * 3),
    ], ids=["short-values", "long-values", "2d-moisture", "2d-times"])
    def test_misshapen_columns_rejected_before_any_trial(self, times, values):
        samples = decision.Samples(times, *map(np.array, values))
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(InputError):
            run_session(samples, PUBSUB, 1, LinkModel(), EnergyModel(), rng)
        assert rng.bit_generator.state == state

    def test_clipped_sensor_readings_are_sent(self):
        # readings at sigma = 1e6 around true values at each clip edge,
        # sized as the per-packet loop sizes them
        z = np.random.default_rng(3).standard_normal((3, 600))
        z[:, :5] = [-1e-6, 0.0, 1e-6, -1.0, 1.0]
        truth = np.repeat([0.0, 100.0], 300)
        moisture = fieldsim.sample_soil_sensor(
            truth, fieldsim.SensorSpec(noise_sigma=1e6), z[0])
        temp, rh = fieldsim.sample_air_sensor(
            np.repeat([fieldsim.SENSOR_TEMP_MIN_C,
                       fieldsim.SENSOR_TEMP_MAX_C], 300),
            truth, 1e6, z[1], z[2])
        samples = decision.Samples(300 * np.arange(600), moisture, temp, rh)
        packets = packets_from_samples(samples, TOPIC)
        link = LinkModel(loss_prob=0.3)
        want, *_ = reference_session(packets, PUBSUB, 1, link, EnergyModel(),
                                     np.random.default_rng(5), 0.0)
        for readings in (samples, packets):
            got = run_session(readings, PUBSUB, 1, link, EnergyModel(),
                              np.random.default_rng(5))
            assert got.bytes_sent == want.bytes_sent


class TestPublish:
    def test_lossless_first_attempt(self):
        link = LinkModel(loss_prob=0.0)
        _, attempts, delivered = _outcomes(_packets(1), PUBSUB, 0, link,
                                           EnergyModel(),
                                           np.random.default_rng(0))
        assert attempts.tolist() == [1]
        assert delivered.tolist() == [True]

    def test_qos0_delivery_rate_matches_loss(self):
        link = LinkModel(loss_prob=0.02)
        _, _, delivered = _outcomes(_packets(SEASON_PACKETS), PUBSUB, 0,
                                    link, EnergyModel(),
                                    np.random.default_rng(1))
        assert delivered.sum() / SEASON_PACKETS == pytest.approx(0.98,
                                                                 abs=0.005)

    def test_qos1_beats_closed_form_floor(self):
        # closed form: P(delivered) = 1 - p^(retries+1)
        link = LinkModel(loss_prob=0.02, max_retries=5)
        assert 1.0 - 0.02 ** 6 >= 0.999999
        _, _, delivered = _outcomes(_packets(SEASON_PACKETS), PUBSUB, 1,
                                    link, EnergyModel(),
                                    np.random.default_rng(2))
        assert delivered.sum() / SEASON_PACKETS >= 0.9999

    def test_invalid_qos_rejected(self):
        with pytest.raises(InputError):
            run_session(_packets(1), PUBSUB, 2, LinkModel(), EnergyModel(),
                        np.random.default_rng(0))

    @given(st.floats(0.0, 0.95), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_qos1_never_below_qos0(self, loss, seed):
        # identical per-packet streams: the first attempt is shared, so QoS1
        # delivers a superset of what QoS0 delivers
        link = LinkModel(loss_prob=loss, max_retries=3)
        d0, d1 = (_outcomes(_packets(1), PUBSUB, qos, link, EnergyModel(),
                            np.random.default_rng(seed))[2]
                  for qos in (0, 1))
        assert d1[0] >= d0[0]


# one-sided normal tail beyond five standard deviations
_FIVE_SIGMA_TAIL = 0.5 * math.erfc(5 / math.sqrt(2))


def _binomial_tails(n, p, k):
    """``P(X <= k)`` and ``P(X >= k)`` for ``X ~ Binomial(n, p)``, summed
    from the exact probability mass function. Unlike a normal
    approximation, this holds for a loss probability near zero, where one
    lost packet in ``n`` is a likely outcome."""
    if p == 0.0:
        return 1.0, float(k == 0)
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                    - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
           for i in range(n + 1)]
    return math.fsum(pmf[:k + 1]), math.fsum(pmf[k:])


class TestSession:
    def test_energy_totals_reproduce_defaults(self):
        link = LinkModel(loss_prob=0.0)
        energy = EnergyModel()
        packets = _packets(SEASON_PACKETS)
        ps = run_session(packets, PUBSUB, 0, link, energy,
                         np.random.default_rng(0))
        rr = run_session(packets, REQRESP, 0, link, energy,
                         np.random.default_rng(0))
        assert ps.energy_mwh == pytest.approx(850.0)
        assert rr.energy_mwh == pytest.approx(1000.0)
        assert ps.energy_mwh / rr.energy_mwh == pytest.approx(0.85, abs=0.01)

    def test_lossless_accounting(self):
        stats = run_session(_packets(100), PUBSUB, 0, LinkModel(loss_prob=0.0),
                            EnergyModel(), np.random.default_rng(0))
        assert stats.delivered == stats.attempted == 100
        assert stats.retransmissions == 0
        assert stats.delivery_rate == 1.0

    def test_latency_constants(self):
        link = LinkModel(loss_prob=0.0)
        ps = run_session(_packets(10), PUBSUB, 0, link, EnergyModel(),
                         np.random.default_rng(0))
        rr = run_session(_packets(10), REQRESP, 0, link, EnergyModel(),
                         np.random.default_rng(0))
        assert ps.mean_latency_s == 3.0
        assert rr.mean_latency_s == 10.0

    def test_empty_sequence_gives_zero_stats(self):
        stats = run_session([], PUBSUB, 0, LinkModel(), EnergyModel(),
                            np.random.default_rng(0))
        assert stats.attempted == stats.delivered == 0
        assert stats.energy_mwh == 0.0

    def test_on_result_sees_every_packet(self):
        stats, attempts, delivered = _outcomes(
            _packets(25), PUBSUB, 0, LinkModel(loss_prob=0.5), EnergyModel(),
            np.random.default_rng(0))
        assert len(attempts) == len(delivered) == 25
        assert attempts.tolist() == [1] * 25
        assert delivered.sum() == stats.delivered

    @given(st.integers(1, 400), st.integers(1, 400))
    @settings(deadline=None)
    def test_energy_monotone_in_message_count(self, n1, n2):
        link = LinkModel(loss_prob=0.0)
        e1 = run_session(_packets(n1), PUBSUB, 0, link, EnergyModel(),
                         np.random.default_rng(0)).energy_mwh
        e2 = run_session(_packets(n2), PUBSUB, 0, link, EnergyModel(),
                         np.random.default_rng(0)).energy_mwh
        assert (e1 < e2) == (n1 < n2) or n1 == n2

    @given(st.floats(0.0, 0.5), st.integers(0, 2 ** 31 - 1))
    @example(loss=1e-05, seed=130)  # one loss in 2000: outside 5 sigma
    @settings(max_examples=200, deadline=None)
    def test_empirical_rate_within_binomial_bounds(self, loss, seed):
        n = 2000
        link = LinkModel(loss_prob=loss)
        stats = run_session(_packets(n), PUBSUB, 0, link, EnergyModel(),
                            np.random.default_rng(seed))
        assert 0.0 <= stats.delivery_rate <= 1.0
        # the lost count is no further out in either binomial tail than a
        # five-sigma normal deviation
        lower, upper = _binomial_tails(n, loss, n - stats.delivered)
        assert min(lower, upper) >= _FIVE_SIGMA_TAIL


class TestLinkModel:
    # the loader rejects these; a LinkModel built in code must too, or the
    # session fails inside the delivery kernel or retries the wrong count
    @pytest.mark.parametrize("max_retries", [2.5, 1e9, True, False],
                             ids=["fraction", "float-literal", "true",
                                  "false"])
    def test_non_integer_retry_budget_rejected(self, max_retries):
        with pytest.raises(ConfigurationError, match="max_retries"):
            LinkModel(max_retries=max_retries)

    # a packet's 1 + max_retries attempts are an int64 column
    @pytest.mark.parametrize("max_retries", [2**63 - 1, 10**20],
                             ids=["2**63-1", "10**20"])
    def test_retry_budget_past_int64_rejected(self, max_retries):
        with pytest.raises(ConfigurationError, match="max_retries"):
            LinkModel(max_retries=max_retries)

    def test_largest_retry_budget_runs(self):
        link = LinkModel(loss_prob=0.5, max_retries=2**63 - 2)
        stats = run_session(_packets(100), PUBSUB, 1, link, EnergyModel(),
                            np.random.default_rng(0))
        assert stats.delivered == stats.attempted == 100

    # NaN fails every comparison, so each check must be one that NaN fails
    @pytest.mark.parametrize("proto", [PUBSUB, REQRESP])
    def test_nan_latency_rejected(self, proto):
        latency = {PUBSUB: 3.0, REQRESP: 10.0, proto: math.nan}
        with pytest.raises(ConfigurationError, match=f"latency for {proto}"):
            LinkModel(latency_s=latency)

    def test_scenario_with_oversized_retry_budget_fails_at_load(self):
        with default_scenario_path() as path:
            raw = yaml.safe_load(path.read_text())
        raw["link"].update(qos=1, max_retries=10**20)
        with pytest.raises(ConfigurationError, match="max_retries"):
            parse_scenario(raw)


class TestEnergyModel:
    # NaN fails every comparison, so each check must be one that NaN fails
    def test_nan_idle_draw_rejected(self):
        with pytest.raises(ConfigurationError, match="idle_mwh_per_day"):
            EnergyModel(idle_mwh_per_day=math.nan)

    @pytest.mark.parametrize("proto", [PUBSUB, REQRESP])
    def test_nan_per_message_energy_rejected(self, proto):
        per_message = {PUBSUB: 0.05, REQRESP: 0.06, proto: math.nan}
        with pytest.raises(ConfigurationError, match=f"energy for {proto}"):
            EnergyModel(energy_per_message_mwh=per_message)


class TestStatsMerge:
    def test_delivered_bounded_by_attempts(self):
        stats = run_session(_packets(500), PUBSUB, 1,
                            LinkModel(loss_prob=0.3, max_retries=4),
                            EnergyModel(), np.random.default_rng(0))
        assert stats.delivered <= stats.attempted + stats.retransmissions


class TestPacketCount:
    def test_season_arithmetic(self, default_scenario):
        # 60 days of one packet per 300 s sample
        assert default_scenario.season.days == 60
        assert default_scenario.soil_sensor.sample_interval_s == 300
        weather = generate_weather(default_scenario.season,
                                   default_scenario.seed)
        drivers = decision.season_drivers(default_scenario, weather, 0)
        result = decision.schedule_season(decision.SENSOR_DRIVEN,
                                          default_scenario, drivers)
        packets = packets_from_samples(result.samples, "farm/f/telemetry")
        assert len(packets) == SEASON_PACKETS == 60 * 288
        assert [p.sequence_no for p in packets[:2]] == [1, 2]

    def test_zero_days_rejected(self, default_scenario):
        # a season with no days, and so no packets, cannot be configured
        with pytest.raises(ConfigurationError):
            dataclasses.replace(default_scenario.season, days=0)


class TestEnergyEfficiency:
    def test_lossless_no_idle_is_100(self):
        assert energy_efficiency_pct(850.0, 850.0) == 100.0

    def test_all_lost_is_zero(self):
        assert energy_efficiency_pct(0.0, 850.0) == 0.0

    def test_default_scenario_exceeds_95(self):
        link = LinkModel(loss_prob=0.02)
        energy = EnergyModel()
        stats = run_session(_packets(SEASON_PACKETS), PUBSUB, 0, link, energy,
                            np.random.default_rng(0), days=60)
        useful = stats.delivered * energy.energy_per_message_mwh[PUBSUB]
        assert energy_efficiency_pct(useful, stats.energy_mwh) >= 95.0

    def test_zero_total_rejected(self):
        with pytest.raises(InputError):
            energy_efficiency_pct(1.0, 0.0)
