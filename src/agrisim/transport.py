"""Telemetry transport over a lossy low-bandwidth link.

Two protocols are modeled: a lightweight publish/subscribe path (MQTT-style,
3 s per delivered point by default) and a polling request/response path
(HTTP/REST-style, 10 s per point). Loss is a Bernoulli event per transmission
attempt; QoS 1 retransmits until acknowledged or a retry budget runs out.
Energy is a per-message constant per protocol plus a daily idle draw.

Simulated time only: nothing here blocks on the wall clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from agrisim.errors import ConfigurationError, InputError
from agrisim.fieldsim import SECONDS_PER_DAY  # noqa: F401  re-exported

PUBSUB = "PUBSUB"
REQRESP = "REQRESP"
PROTOCOLS = (PUBSUB, REQRESP)

# payload field order is part of the wire format; changing it breaks goldens
PAYLOAD_FIELDS = ("moisture", "temp", "humidity")
# the reading each payload field carries, on a packet and on decision.Samples
READING_ATTRS = ("moisture_pct", "temp_c", "humidity_pct")


@dataclass(frozen=True, slots=True)
class TelemetryPacket:
    """One consolidated per-interval message (moisture %, temp C, humidity %)."""

    sequence_no: int
    timestamp_s: float
    moisture_pct: float
    temp_c: float
    humidity_pct: float
    topic: str = "farm/field-1/telemetry"


@dataclass(frozen=True)
class LinkModel:
    """Per-attempt loss probability and per-protocol point latency."""

    loss_prob: float = 0.02
    latency_s: dict = field(default_factory=lambda: {PUBSUB: 3.0, REQRESP: 10.0})
    max_retries: int = 5

    def __post_init__(self):
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigurationError(f"loss_prob must be in [0, 1): {self.loss_prob}")
        if (not isinstance(self.max_retries, int)
                or isinstance(self.max_retries, bool)):
            raise ConfigurationError(
                f"max_retries must be an integer: {self.max_retries!r}")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if 1 + self.max_retries > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"max_retries must be at most 2**63 - 2, so that 1 + "
                f"max_retries attempts fit in int64: {self.max_retries}")
        for proto in PROTOCOLS:
            if not self.latency_s.get(proto, 0.0) > 0.0:
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
        if not self.idle_mwh_per_day >= 0.0:
            raise ConfigurationError("idle_mwh_per_day must be non-negative")
        for proto in PROTOCOLS:
            per_msg = self.energy_per_message_mwh.get(proto, -1.0)
            if not per_msg >= 0.0:
                raise ConfigurationError(f"missing/negative energy for {proto}")
            # a session must spend some energy: efficiency and the protocol
            # energy ratio divide by its total
            if per_msg == 0.0 and self.idle_mwh_per_day == 0.0:
                raise ConfigurationError(
                    f"{proto} per-message energy and idle_mwh_per_day are "
                    f"both 0: a session would spend no energy")


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


def _deliveries(n: int, max_attempts: int, loss_prob: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-packet attempt counts and delivery flags of ``n`` packets sent in
    order, each tried up to ``max_attempts`` times.

    A trial with ``rng.random() < loss_prob`` is lost. The trials are drawn
    in blocks of one per unfinished packet: each of those needs at least one
    more trial, so no block draws past the session's last trial, and ``rng``
    consumes exactly the trials of a packet-at-a-time loop, in its order. At
    one attempt per packet every trial finishes its packet, so the first
    block is the whole session: ``n`` trials, each packet's only one.

    A block that loses no packet, each success within ``max_attempts``
    trials, fills consecutive rows from its first unsent one; otherwise a
    delivered packet's row is that row plus its rank plus the lost packets
    before it.
    """
    if max_attempts == 1:
        return np.ones(n, dtype=np.int64), rng.random(n) >= loss_prob
    attempts = np.full(n, max_attempts, dtype=np.int64)
    delivered = np.zeros(n, dtype=bool)
    done = carry = 0  # finished packets; lost trials of the next packet
    while done < n:
        block = n - done
        ok = np.flatnonzero(rng.random(block) >= loss_prob)
        if ok.size:
            # the trials up to and including each success
            tries = np.empty_like(ok)
            tries[0] = ok[0] + 1 + carry
            np.subtract(ok[1:], ok[:-1], out=tries[1:])
            end = done + ok.size
            big = np.flatnonzero(tries > max_attempts)
            if big.size:
                # t trials: (t - 1) // M lost packets of M, then a delivery
                lost = (tries[big] - 1) // max_attempts
                tries[big] -= lost * max_attempts
                shift = np.zeros(ok.size, dtype=np.int64)
                shift[big] = lost
                rows = np.cumsum(shift) + np.arange(done, end)
                attempts[rows] = tries
                delivered[rows] = True
                end = int(rows[-1]) + 1
            else:
                attempts[done:end] = tries
                delivered[done:end] = True
            done, carry, block = end, 0, block - 1 - int(ok[-1])
        # lost trials after the block's last success carry into the next
        lost_packets, carry = divmod(carry + block, max_attempts)
        done += lost_packets
    return attempts, delivered


# the smallest double that prints as "10.0"; 9.95 itself prints as "9.9"
_PRINTS_AS_TEN = math.nextafter(9.95, math.inf)


def _payload_bytes(columns) -> np.ndarray:
    """Per-reading length in bytes of the wire text
    ``moisture=<m>,temp=<t>,humidity=<h>``, each value written as
    ``f"{v:.1f}"``, from the moisture, temp and humidity columns.

    Sensors clip their readings inside [-100, 100]. There a value's text is
    a sign if negative (``-0.04`` prints as ``"-0.0"``), ``"0.0"``, one more
    digit from ``_PRINTS_AS_TEN`` on and another from 99.95 (``"100.0"``)
    on. A NaN, infinite or larger reading raises ``InputError``.
    """
    shortest = len(",".join(f"{name}=0.0" for name in PAYLOAD_FIELDS))
    # a payload has at most 43 bytes; bools add to uint8 faster than to int64
    widths = np.full(len(columns[0]), shortest, dtype=np.uint8)
    for name, column in zip(PAYLOAD_FIELDS, columns):
        magnitude = np.abs(column)
        if not magnitude.max(initial=0.0) <= 100.0:  # NaN fails it too
            raise InputError(f"{name} readings must be in [-100, 100]")
        widths += np.signbit(column)
        widths += magnitude >= _PRINTS_AS_TEN
        widths += magnitude >= 99.95
    return widths


def _sum_in_order(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, rounded step by step like a
    ``+=`` loop (``np.cumsum`` adds in order; ``np.sum`` adds pairwise)."""
    return 0.0 + float(np.cumsum(values)[-1]) if values.size else 0.0


def run_session(readings, protocol: str, qos: int, link: LinkModel,
                energy: EnergyModel, rng: np.random.Generator,
                days: float = 0.0, on_result=None) -> TransportStats:
    """Send one packet per reading over one protocol and aggregate the
    outcome.

    ``readings`` is a ``decision.Samples``, whose ``moisture_pct``,
    ``temp_c`` and ``humidity_pct`` columns give the payload sizes, or a
    list of ``TelemetryPacket``, which is read into the same three columns
    first. Each attempt is one Bernoulli trial at ``link.loss_prob``. QoS 0
    makes one attempt per packet; QoS 1 retries until acknowledged or
    ``max_retries`` extra attempts are spent. Loss is a modeled outcome, not
    an error. Energy charges every attempt (first tries and retries) at the
    protocol's per-message cost, plus idle draw for ``days`` simulated days.
    Latency is the protocol constant per delivered packet. ``on_result``, if
    given, is called once with the per-packet ``attempts`` and ``delivered``
    arrays, in reading order, so a downstream consumer can see individual
    deliveries. A ``Samples`` whose time and reading columns are not 1-D
    and of one length, or a reading that is NaN, infinite or beyond the
    sensors' clip range [-100, 100], raises ``InputError`` before any trial
    is drawn.
    """
    if protocol not in PROTOCOLS:
        raise InputError(f"unknown protocol: {protocol}")
    if qos not in (0, 1):
        raise InputError(f"qos must be 0 or 1: {qos}")
    if isinstance(readings, list):  # perfbench's transport-sweep sends these
        n = len(readings)
        columns = [np.fromiter(map(attrgetter(attr), readings), np.float64, n)
                   for attr in READING_ATTRS]
    else:
        columns = [getattr(readings, attr) for attr in READING_ATTRS]
        n = np.size(readings.timestamp_s)
        if any(np.shape(c) != (n,) for c in (readings.timestamp_s, *columns)):
            raise InputError("a Samples' time and reading columns must be "
                             "1-D and of one length")
    payload_bytes = _payload_bytes(columns)
    max_attempts = 1 if qos == 0 else 1 + link.max_retries
    attempts, delivered = _deliveries(n, max_attempts, link.loss_prob, rng)
    n_delivered = int(np.count_nonzero(delivered))
    per_msg = energy.energy_per_message_mwh[protocol]
    stats = TransportStats(
        attempted=n, delivered=n_delivered,
        retransmissions=int(attempts.sum()) - n,
        bytes_sent=int(np.dot(payload_bytes, attempts)),
        energy_mwh=_sum_in_order(per_msg * attempts),
        latency_sum_s=_sum_in_order(
            np.full(n_delivered, link.latency_s[protocol], dtype=np.float64)))
    stats.energy_mwh += energy.idle_mwh_per_day * days
    if on_result is not None:
        on_result(attempts, delivered)
    return stats


def energy_efficiency_pct(useful_energy_mwh: float, total_energy_mwh: float) -> float:
    """Share of total energy attributable to delivered messages, as percent."""
    if total_energy_mwh <= 0.0:
        raise InputError("total energy must be positive")
    if useful_energy_mwh < 0.0:
        raise InputError("useful energy must be non-negative")
    return 100.0 * useful_energy_mwh / total_energy_mwh
