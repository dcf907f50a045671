"""Workloads of the agrisim benchmark and the correctness gate for each op.

A workload turns the benchmark seed into one round of op keys. ``start(key)``
prepares one op outside the timed region and returns the call to time;
``check(key, output)`` returns the op's digest and the invariants it broke.
The runner compares the digest with a pinned one, or, for a seed that has
none, with the digest of the first run of the same key.

agrisim is driven only through its public functions; the one exception is
the capture in ``_SeasonWorkload``, which records the channel store and the
dispatcher that ``pipeline.run_season`` creates and does not return, so the
gate can reconcile their tallies.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import yaml

import agrisim
from agrisim import alerting, fieldsim, ingest, pipeline, scenario, transport

SHIPPED_SCENARIO = Path(agrisim.__file__).parent / "data" / "mubende_dry.yaml"
BALANCE_TOL_MM = 1e-9

# transport-sweep grid: loss x QoS x protocol, one op per cell
TRANSPORT_GRID = [(loss, qos, proto) for loss in (0.0, 0.02, 0.2)
                  for qos in (0, 1) for proto in transport.PROTOCOLS]
WET_LOSSY_SEEDS_PER_ROUND = 3


def shipped_mapping() -> dict:
    with SHIPPED_SCENARIO.open() as fh:
        return yaml.safe_load(fh)


def build_scenario(workload: str, raw: dict) -> scenario.Scenario:
    """Parse the scenario of a workload from a fresh copy of ``raw``.

    ``parse_scenario`` pops ``qos`` out of the mapping it is given, so a
    reused mapping would silently turn QoS 1 into 0; every variant is built
    from its own deep copy and the wet-lossy QoS is checked after parsing.
    """
    mapping = copy.deepcopy(raw)
    if workload == "season-wet-lossy":
        mapping["season"].update(dry_season=False, rain_probability=0.3,
                                  rain_mean_mm=8.0)
        mapping["link"].update(loss_prob=0.2, qos=1)
        mapping["channel"]["min_update_interval_s"] = 600.0
        mapping["alerting"]["locale"] = "lg"
    parsed = scenario.parse_scenario(mapping)
    if workload == "season-wet-lossy" and parsed.qos != 1:
        raise RuntimeError(f"season-wet-lossy parsed qos={parsed.qos}, want 1")
    return parsed


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def season_problems(sc: scenario.Scenario, out: pipeline.RunOutput,
                    store, dispatcher) -> list[str]:
    """Model invariants of one paired season; an empty list means it holds."""
    problems = []
    system, baseline = out.system_arm, out.baseline_arm
    if system.noise_digest != baseline.noise_digest:
        problems.append("arms consumed different noise streams")
    for proto, stats in out.transport_stats.items():
        if stats.delivered > stats.attempted:
            problems.append(f"{proto}: delivered {stats.delivered} > "
                            f"attempted {stats.attempted}")
    c = store.counters(sc.channel.channel_id)
    ingested = c["accepted"] + c["rejected_auth"] + c["rejected_rate"]
    delivered = out.transport_stats[transport.PUBSUB].delivered
    if ingested != delivered:
        problems.append(f"ingest tallies {ingested} != PUBSUB delivered "
                        f"{delivered}")
    if len(dispatcher.records) != len(system.alerts):
        problems.append(f"{len(dispatcher.records)} dispatch records for "
                        f"{len(system.alerts)} alerts")
    weather = fieldsim.generate_weather(sc.season, sc.seed)
    for arm in (system, baseline):
        if arm.eta_total_mm > arm.etm_total_mm:
            problems.append(f"{arm.policy}: ETa {arm.eta_total_mm} > ETm "
                            f"{arm.etm_total_mm}")
        if len(arm.daily) != len(weather):
            problems.append(f"{arm.policy}: {len(arm.daily)} daily records "
                            f"for {len(weather)} days")
        for w, d in zip(weather, arm.daily):
            residual = ((w.rain_mm + d.irrigation_mm)
                        - (d.eta_mm + d.drainage_mm)
                        + (d.depletion_end_mm - d.depletion_start_mm))
            if abs(residual) > BALANCE_TOL_MM:
                problems.append(f"{arm.policy} day {d.day_index}: water "
                                f"balance off by {residual} mm")
    return problems


class _SeasonWorkload:
    """One op is one paired ``pipeline.run_season``.

    Use as a context manager: while open, ``ingest.ChannelStore`` and
    ``alerting.Dispatcher`` are replaced by subclasses that remember the
    last instance, which ``check`` reconciles against the season output.
    """

    name = ""

    def __init__(self, seed: int, tmp_root: Path, raw: dict | None = None):
        base = build_scenario(self.name,
                              shipped_mapping() if raw is None else raw)
        self.scenarios = {k: dataclasses.replace(base, seed=k)
                          for k in self.round_seeds(seed)}
        self.keys = list(self.scenarios)
        self.tmp_root = tmp_root
        self.sim_days_per_op = 2 * base.season.days  # two policy arms
        self._store = self._dispatcher = None
        self._saved = None

    def round_seeds(self, seed: int) -> list[int]:
        raise NotImplementedError

    def pin_key(self, key) -> str:
        return str(key)

    def __enter__(self):
        bench = self
        store_cls, dispatcher_cls = ingest.ChannelStore, alerting.Dispatcher

        class CapturedStore(store_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                bench._store = self

        class CapturedDispatcher(dispatcher_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                bench._dispatcher = self

        self._saved = (store_cls, dispatcher_cls)
        ingest.ChannelStore = CapturedStore
        alerting.Dispatcher = CapturedDispatcher
        return self

    def __exit__(self, *exc):
        ingest.ChannelStore, alerting.Dispatcher = self._saved

    def problems(self, key, out) -> list[str]:
        return season_problems(self.scenarios[key], out, self._store,
                               self._dispatcher)


class SeasonDry(_SeasonWorkload):
    """The ``agrisim run`` path: shipped scenario, artifacts to a fresh
    directory, every op on the benchmark seed."""

    name = "season-dry"

    def round_seeds(self, seed):
        return [seed]

    def start(self, key):
        sc = self.scenarios[key]
        out_dir = Path(tempfile.mkdtemp(dir=self.tmp_root))
        return lambda: pipeline.run_season(sc, out_dir=out_dir)

    def check(self, key, out):
        try:
            manifest = (out.out_dir / pipeline.MANIFEST_NAME).read_bytes()
        finally:
            shutil.rmtree(out.out_dir)
        return hashlib.sha256(manifest).hexdigest(), self.problems(key, out)


class SeasonWetLossy(_SeasonWorkload):
    """Wet, lossy QoS-1 variant run in memory as a seed sweep."""

    name = "season-wet-lossy"

    def round_seeds(self, seed):
        return [seed + i for i in range(WET_LOSSY_SEEDS_PER_ROUND)]

    def start(self, key):
        sc = self.scenarios[key]
        return lambda: pipeline.run_season(sc, out_dir=None)

    def check(self, key, out):
        digest = _digest({
            "totals": dataclasses.asdict(out.totals),
            "economics": out.economics,
            "noise": [out.system_arm.noise_digest,
                      out.baseline_arm.noise_digest],
            "transport": {p: dataclasses.asdict(s)
                          for p, s in out.transport_stats.items()},
        })
        return digest, self.problems(key, out)


def season_stream(seed: int, sc: scenario.Scenario
                  ) -> list[transport.TelemetryPacket]:
    """One season of consolidated telemetry drawn from ``seed``."""
    interval = sc.soil_sensor.sample_interval_s
    n = sc.season.days * (transport.SECONDS_PER_DAY // interval)
    rng = np.random.default_rng(seed)
    moisture = np.round(rng.uniform(15.0, 45.0, n), 1).tolist()
    temp = np.round(rng.uniform(14.0, 32.0, n), 1).tolist()
    humidity = np.round(rng.uniform(30.0, 60.0, n), 1).tolist()
    topic = f"farm/{sc.field_id}/telemetry"
    return [transport.TelemetryPacket(
        sequence_no=i + 1, timestamp_s=float((i + 1) * interval),
        moisture_pct=moisture[i], temp_c=temp[i], humidity_pct=humidity[i],
        topic=topic) for i in range(n)]


class TransportSweep:
    """One op is one ``transport.run_session`` over a generated season
    stream; a round covers the loss x QoS x protocol grid."""

    name = "transport-sweep"

    def __init__(self, seed: int, tmp_root: Path, raw: dict | None = None):
        base = build_scenario(self.name,
                              shipped_mapping() if raw is None else raw)
        self.seed = seed
        self.keys = list(range(len(TRANSPORT_GRID)))
        self.links = {loss: dataclasses.replace(base.link, loss_prob=loss)
                      for loss, _, _ in TRANSPORT_GRID}
        self.energy = base.energy
        self.days = base.season.days
        self.sim_days_per_op = base.season.days
        self.packets = season_stream(seed, base)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def pin_key(self, key) -> str:
        return f"{self.seed}/{key}"

    def start(self, key):
        loss, qos, proto = TRANSPORT_GRID[key]
        rng = np.random.default_rng([self.seed, key])
        return lambda: transport.run_session(
            self.packets, proto, qos, self.links[loss], self.energy, rng,
            days=self.days)

    def check(self, key, stats):
        loss, qos, proto = TRANSPORT_GRID[key]
        problems = []
        if stats.attempted != len(self.packets):
            problems.append(f"attempted {stats.attempted} of "
                            f"{len(self.packets)} packets")
        if stats.delivered > stats.attempted:
            problems.append(f"delivered {stats.delivered} > attempted "
                            f"{stats.attempted}")
        if qos == 0 and stats.retransmissions:
            problems.append(f"{stats.retransmissions} retransmissions at QoS 0")
        if loss == 0.0 and stats.delivered != stats.attempted:
            problems.append("lost packets on a lossless link")
        transmissions = stats.attempted + stats.retransmissions
        energy = (self.energy.energy_per_message_mwh[proto] * transmissions
                  + self.energy.idle_mwh_per_day * self.days)
        if abs(stats.energy_mwh - energy) > 1e-6 * energy:
            problems.append(f"energy {stats.energy_mwh} mWh != "
                            f"{energy} mWh charged per transmission")
        return _digest(dataclasses.asdict(stats)), problems


WORKLOADS = {w.name: w for w in (SeasonDry, SeasonWetLossy, TransportSweep)}
