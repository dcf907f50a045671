"""Telemetry transport over a lossy low-bandwidth link.

Two protocols are modeled: a lightweight publish/subscribe path (MQTT-style,
3 s per delivered point by default) and a polling request/response path
(HTTP/REST-style, 10 s per point). Loss is a Bernoulli event per transmission
attempt; QoS 1 retransmits until acknowledged or a retry budget runs out.
Energy is a per-message constant per protocol plus a daily idle draw.

Simulated time only: nothing here blocks on the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from agrisim.errors import ConfigurationError, InputError
from agrisim.fieldsim import SECONDS_PER_DAY  # noqa: F401  re-exported

PUBSUB = "PUBSUB"
REQRESP = "REQRESP"
PROTOCOLS = (PUBSUB, REQRESP)

# payload field order is part of the wire format; changing it breaks goldens
PAYLOAD_FIELDS = ("moisture", "temp", "humidity")


@dataclass(frozen=True)
class TelemetryPacket:
    """One consolidated per-interval message (moisture %, temp C, humidity %)."""

    sequence_no: int
    timestamp_s: float
    moisture_pct: float
    temp_c: float
    humidity_pct: float
    topic: str = "farm/field-1/telemetry"

    @property
    def payload(self) -> str:
        """Wire payload: comma-separated field=value pairs, fixed order,
        one decimal per value."""
        values = (self.moisture_pct, self.temp_c, self.humidity_pct)
        return ",".join(f"{name}={v:.1f}" for name, v in zip(PAYLOAD_FIELDS, values))

    @property
    def payload_bytes(self) -> int:
        return len(self.payload.encode("ascii"))


@dataclass(frozen=True)
class LinkModel:
    """Per-attempt loss probability and per-protocol point latency."""

    loss_prob: float = 0.02
    latency_s: dict = field(default_factory=lambda: {PUBSUB: 3.0, REQRESP: 10.0})
    max_retries: int = 5

    def __post_init__(self):
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigurationError(f"loss_prob must be in [0, 1): {self.loss_prob}")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        for proto in PROTOCOLS:
            if self.latency_s.get(proto, 0.0) <= 0.0:
                raise ConfigurationError(f"latency for {proto} must be positive")


@dataclass(frozen=True)
class EnergyModel:
    """Per-message transmit energy by protocol, plus idle draw.

    Defaults reproduce season totals of 850 mWh (pub/sub) vs 1000 mWh
    (request/response) over a 60-day season at 5-minute consolidation
    (17,280 messages).
    """

    energy_per_message_mwh: dict = field(
        default_factory=lambda: {PUBSUB: 850.0 / 17280, REQRESP: 1000.0 / 17280})
    idle_mwh_per_day: float = 0.0

    def __post_init__(self):
        if self.idle_mwh_per_day < 0.0:
            raise ConfigurationError("idle_mwh_per_day must be non-negative")
        for proto in PROTOCOLS:
            per_msg = self.energy_per_message_mwh.get(proto, -1.0)
            if per_msg < 0.0:
                raise ConfigurationError(f"missing/negative energy for {proto}")
            # a session must spend some energy: efficiency and the protocol
            # energy ratio divide by its total
            if per_msg == 0.0 and self.idle_mwh_per_day == 0.0:
                raise ConfigurationError(
                    f"{proto} per-message energy and idle_mwh_per_day are "
                    f"both 0: a session would spend no energy")


@dataclass(frozen=True)
class DeliveryResult:
    delivered: bool
    attempts: int


@dataclass
class TransportStats:
    """Session-level delivery/energy/latency accounting."""

    attempted: int = 0
    delivered: int = 0
    retransmissions: int = 0
    bytes_sent: int = 0
    energy_mwh: float = 0.0
    latency_sum_s: float = 0.0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.delivered if self.delivered else 0.0


def publish(packet: TelemetryPacket, qos: int, link: LinkModel,
            rng: np.random.Generator) -> DeliveryResult:
    """Attempt delivery of one packet.

    QoS 0 is a single Bernoulli trial; QoS 1 retries until acknowledged or
    ``max_retries`` extra attempts are spent. Loss is a modeled outcome, not
    an error.
    """
    if qos not in (0, 1):
        raise InputError(f"qos must be 0 or 1: {qos}")
    max_attempts = 1 if qos == 0 else 1 + link.max_retries
    attempts = 0
    while attempts < max_attempts:
        attempts += 1
        if rng.random() >= link.loss_prob:
            return DeliveryResult(delivered=True, attempts=attempts)
    return DeliveryResult(delivered=False, attempts=attempts)


def run_session(packets, protocol: str, qos: int, link: LinkModel,
                energy: EnergyModel, rng: np.random.Generator,
                days: float = 0.0, on_result=None) -> TransportStats:
    """Send a packet sequence over one protocol and aggregate the outcome.

    Energy charges every transmission attempt (first tries and retries) at the
    protocol's per-message cost, plus idle draw for ``days`` simulated days.
    Latency is the protocol constant per delivered point. ``on_result``, if
    given, is called with (packet, DeliveryResult) for each packet so a
    downstream consumer can see individual deliveries.
    """
    if protocol not in PROTOCOLS:
        raise InputError(f"unknown protocol: {protocol}")
    per_msg = energy.energy_per_message_mwh[protocol]
    latency = link.latency_s[protocol]
    stats = TransportStats()
    for packet in packets:
        result = publish(packet, qos, link, rng)
        stats.attempted += 1
        stats.retransmissions += result.attempts - 1
        stats.bytes_sent += packet.payload_bytes * result.attempts
        stats.energy_mwh += per_msg * result.attempts
        if result.delivered:
            stats.delivered += 1
            stats.latency_sum_s += latency
        if on_result is not None:
            on_result(packet, result)
    stats.energy_mwh += energy.idle_mwh_per_day * days
    return stats


def energy_efficiency_pct(useful_energy_mwh: float, total_energy_mwh: float) -> float:
    """Share of total energy attributable to delivered messages, as percent."""
    if total_energy_mwh <= 0.0:
        raise InputError("total energy must be positive")
    if useful_energy_mwh < 0.0:
        raise InputError("useful energy must be non-negative")
    return 100.0 * useful_energy_mwh / total_energy_mwh
