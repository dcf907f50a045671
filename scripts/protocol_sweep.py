#!/usr/bin/env python3
"""Sweep link loss probability and compare the two transport protocols.

For each loss level the same season-length stream of constant readings
(40 % moisture, 22 C, 45 % humidity every 300 s) is pushed through PUBSUB
and REQRESP at QoS 0 and QoS 1, printing delivery rate, energy, and mean
latency. Useful for picking a QoS level for a given link quality.
"""

import argparse

import numpy as np

from agrisim import decision, transport
from agrisim.errors import ConfigurationError


def readings(n):
    return decision.Samples(
        timestamp_s=300 * np.arange(n, dtype=np.int64),
        moisture_pct=np.full(n, 40.0), temp_c=np.full(n, 22.0),
        humidity_pct=np.full(n, 45.0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=17_280)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--losses", type=float, nargs="+",
                        default=[0.0, 0.01, 0.02, 0.05, 0.1, 0.2])
    args = parser.parse_args()
    if args.packets < 0:
        parser.error("--packets must be non-negative")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        links = [transport.LinkModel(loss_prob=loss) for loss in args.losses]
    except ConfigurationError as exc:
        parser.error(f"--losses: {exc}")

    stream = readings(args.packets)
    energy = transport.EnergyModel()
    print(f"{'loss':>6} {'qos':>3} {'protocol':>8} {'rate':>8} "
          f"{'energy_mwh':>10} {'latency_s':>9} {'retx':>6}")
    for loss, link in zip(args.losses, links):
        for qos in (0, 1):
            for proto in (transport.PUBSUB, transport.REQRESP):
                stats = transport.run_session(
                    stream, proto, qos, link, energy,
                    np.random.default_rng(args.seed))
                print(f"{loss:6.2f} {qos:>3} {proto:>8} "
                      f"{stats.delivery_rate:8.4f} {stats.energy_mwh:10.2f} "
                      f"{stats.mean_latency_s:9.1f} "
                      f"{stats.retransmissions:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
