"""End-to-end orchestration of the two-arm season experiment.

Runs the sensor-driven and calendar-baseline irrigation arms over identical
weather and crop water use (paired comparison), of which only the sensor
arm reads the sensor noise; pushes the sensor-driven arm's consolidated
telemetry through the lossy transport into the channel store, dispatches
alerts, and derives the season totals, the threshold-validation report, and
all exported artifact files.

Every output byte is determined by (scenario, seed); a JSON-lines manifest
lists file hashes plus the weather and sensor-noise stream hashes. Both
arms carry the one noise digest of the run's season inputs, so the two
noise lines are one value written twice and do not show the pairing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from agrisim import alerting, decision, ingest, metrics, transport
from agrisim.fieldsim import depletion_to_moisture_pct, generate_weather
from agrisim.rows import write_csv
from agrisim.scenario import Scenario

MANIFEST_NAME = "manifest.jsonl"


@dataclass
class RunOutput:
    totals: metrics.SeasonTotals
    report: metrics.MetricReport
    observations: dict[str, float]
    system_arm: decision.SeasonResult
    baseline_arm: decision.SeasonResult
    transport_stats: dict[str, transport.TransportStats]
    economics: dict[str, float]
    out_dir: Path | None = None
    # wall seconds per stage, in run order; not part of any artifact
    timings: dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def _stage(seconds: dict[str, float], name: str):
    """Record the ``with`` block's ``perf_counter`` time as
    ``seconds[name]``."""
    start = time.perf_counter()
    yield
    seconds[name] = time.perf_counter() - start


def packets_from_samples(samples: decision.Samples,
                         topic: str) -> list[transport.TelemetryPacket]:
    """One consolidated packet per sampling interval, fixed field order.

    ``run_season`` sends the sample columns themselves; this builds the
    per-packet form that ``transport.run_session`` also accepts."""
    return [transport.TelemetryPacket(
        sequence_no=i + 1, timestamp_s=ts, moisture_pct=m, temp_c=t,
        humidity_pct=rh, topic=topic)
        for i, (ts, m, t, rh) in enumerate(zip(
            samples.timestamp_s.tolist(), samples.moisture_pct.tolist(),
            samples.temp_c.tolist(), samples.humidity_pct.tolist()))]


def _weather_digest(weather) -> str:
    # sha256 streams: one update of the (days, 4) rows hashes as one per day
    return hashlib.sha256(np.array(
        [(w.t_min_c, w.t_max_c, w.rh_mean_pct, w.rain_mm) for w in weather],
        dtype=np.float64).tobytes()).hexdigest()


def run_season(scenario: Scenario, out_dir=None) -> RunOutput:
    """Execute the full pipeline; write artifact files when out_dir is given.

    Both policy arms read one set of season inputs: the scenario's weather,
    one sensor-noise block and the air readings it drives, of which the
    calendar arm reads only the weather and crop ET. The wall time of
    each stage goes to ``RunOutput.timings``, in run order: weather,
    drivers, each arm, the pub/sub session, ingest of its deliveries, the
    request/response session, dispatch, metrics and, with ``out_dir``,
    artifacts.
    """
    if out_dir is not None:  # fail before the season, not after it
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    with _stage(timings, "weather"):
        weather = generate_weather(scenario.season, scenario.seed)
    sensor_ss, pubsub_ss, reqresp_ss = np.random.SeedSequence(
        scenario.seed).spawn(3)
    with _stage(timings, "drivers"):
        drivers = decision.season_drivers(scenario, weather, sensor_ss)
    with _stage(timings, "sensor_arm"):
        system = decision.schedule_season(decision.SENSOR_DRIVEN, scenario,
                                          drivers)
    with _stage(timings, "baseline_arm"):
        baseline = decision.schedule_season(decision.CALENDAR_BASELINE,
                                            scenario, drivers)
    samples = system.samples
    days = scenario.season.days

    masks = []  # the pub/sub session's delivered mask
    with _stage(timings, "pubsub_session"):
        stats_pubsub = transport.run_session(
            samples, transport.PUBSUB, scenario.qos, scenario.link,
            scenario.energy, np.random.default_rng(pubsub_ss), days=days,
            on_result=lambda attempts, delivered: masks.append(delivered))
    with _stage(timings, "ingest"):
        store = ingest.ChannelStore(scenario.channel)
        delivered, = masks
        store.ingest_batch(
            scenario.channel.channel_id, scenario.channel.write_key,
            samples.timestamp_s[delivered],
            [column[delivered] for column in (samples.moisture_pct,
                                              samples.temp_c,
                                              samples.humidity_pct)])
    with _stage(timings, "reqresp_session"):
        stats_reqresp = transport.run_session(
            samples, transport.REQRESP, scenario.qos, scenario.link,
            scenario.energy, np.random.default_rng(reqresp_ss), days=days)

    with _stage(timings, "dispatch"):
        catalog = alerting.MessageCatalog.default()
        dispatcher = alerting.Dispatcher(catalog, scenario.gateway,
                                         scenario.alerting, scenario.field_id)
        dispatcher.dispatch(system.alerts)

    with _stage(timings, "metrics"):
        output = _season_output(scenario, system, baseline, stats_pubsub,
                                stats_reqresp)
    output.timings = timings
    if out_dir is not None:
        output.out_dir = out_dir
        with _stage(timings, "artifacts"):
            _write_artifacts(output, scenario, weather, store, dispatcher)
    return output


def _season_output(scenario: Scenario, system: decision.SeasonResult,
                   baseline: decision.SeasonResult,
                   stats_pubsub: transport.TransportStats,
                   stats_reqresp: transport.TransportStats) -> RunOutput:
    """The season totals, observations, report and economics of two arms
    and their sessions."""
    samples = system.samples
    ym = scenario.yield_model.max_yield_kg_per_acre
    ky = scenario.yield_model.ky
    yield_system = metrics.yield_from_water_stress(
        system.eta_total_mm, system.etm_total_mm, ky, ym)
    yield_baseline = metrics.yield_from_water_stress(
        baseline.eta_total_mm, baseline.etm_total_mm, ky, ym)

    water_system_l = system.irrigation_total_mm * metrics.LITERS_PER_ACRE_MM
    water_baseline_l = baseline.irrigation_total_mm * metrics.LITERS_PER_ACRE_MM

    totals = metrics.SeasonTotals(
        baseline_water_l_per_acre=water_baseline_l,
        system_water_l_per_acre=water_system_l,
        baseline_yield_kg_per_acre=yield_baseline,
        system_yield_kg_per_acre=yield_system,
        pubsub_energy_mwh=stats_pubsub.energy_mwh,
        reqresp_energy_mwh=stats_reqresp.energy_mwh,
        delivery_rate=stats_pubsub.delivery_rate,
        baseline_event_count=baseline.event_count,
        system_event_count=system.event_count,
    )

    per_msg = scenario.energy.energy_per_message_mwh[transport.PUBSUB]
    useful = stats_pubsub.delivered * per_msg
    energy_eff = transport.energy_efficiency_pct(useful, stats_pubsub.energy_mwh)

    observations = {
        "Temperature": float(samples.temp_c.max()),
        "Humidity": float(samples.humidity_pct.mean()),
        "Soil Moisture": float(samples.moisture_pct.mean()),
        "Data Transmission": stats_pubsub.delivery_rate * 100.0,
        "Water Usage": metrics.water_efficiency_pct(water_baseline_l,
                                                    water_system_l),
        "Crop Yield": metrics.yield_improvement_pct(yield_system,
                                                    yield_baseline),
        "Energy Efficiency": energy_eff,
    }
    report = metrics.build_report(observations, scenario.report_targets)

    econ = scenario.economics
    base_cost = (water_baseline_l * econ.water_cost_ugx_per_l
                 + baseline.event_count * econ.labor_cost_ugx_per_event)
    sys_cost = (water_system_l * econ.water_cost_ugx_per_l
                + system.event_count * econ.labor_cost_ugx_per_event)
    economics = {
        "baseline_cost_ugx": base_cost,
        "system_cost_ugx": sys_cost,
        "cost_savings_ugx": base_cost - sys_cost,
        "cost_savings_fraction_pct": (base_cost - sys_cost) / base_cost * 100.0,
        "revenue_gain_ugx": metrics.revenue_gain_ugx(
            max(yield_system - yield_baseline, 0.0),
            econ.maize_price_ugx_per_kg),
    }

    return RunOutput(
        totals=totals, report=report,
        observations=observations, system_arm=system, baseline_arm=baseline,
        transport_stats={transport.PUBSUB: stats_pubsub,
                         transport.REQRESP: stats_reqresp},
        economics=economics,
    )


def _write_ground_truth_csv(fh, weather, arm: decision.SeasonResult,
                            profile):
    depletion = [d.depletion_end_mm for d in arm.daily]
    moisture = depletion_to_moisture_pct(np.array(depletion), profile)
    names = ["day_index", "day_of_year", "t_min_c", "t_max_c", "rh_mean_pct",
             "rain_mm"]
    write_csv(fh, [*names, "depletion_mm", "moisture_pct"], [
        *([getattr(w, name) for w in weather] for name in names),
        depletion, moisture])


def _write_irrigation_log(fh, system: decision.SeasonResult,
                          baseline: decision.SeasonResult):
    rows = [(e.day_index, arm.policy, e.depth_mm, e.reason)
            for arm in (system, baseline) for e in arm.events]
    write_csv(fh, ["day", "policy", "depth_mm", "trigger_reason"],
              [[row[k] for row in rows] for k in range(4)])


def _write_transport_csv(fh, stats_by_protocol: dict):
    protocols = [transport.PUBSUB, transport.REQRESP]
    names = ["attempted", "delivered", "retransmissions", "bytes_sent",
             "energy_mwh", "mean_latency_s", "delivery_rate"]
    write_csv(fh, ["protocol", *names], [protocols, *(
        [getattr(stats_by_protocol[proto], name) for proto in protocols]
        for name in names)])


class _Artifact:
    """A text stream over one run-directory file: each text it is given is
    written as UTF-8, untranslated, and added to the file's sha256."""

    def __init__(self, fh):
        self._fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._fh.write(data)
        self.sha256.update(data)
        return len(text)


def _write_artifacts(output: RunOutput, scenario: Scenario, weather, store,
                     dispatcher):
    out = output.out_dir
    # the manifest lists these files, not whatever else is there
    written: dict[str, _Artifact] = {}
    with contextlib.ExitStack() as files:  # closes every file on exit
        def artifact(name: str) -> _Artifact:
            fh = files.enter_context((out / name).open("wb"))
            written[name] = _Artifact(fh)
            return written[name]

        _write_ground_truth_csv(artifact("ground_truth_system.csv"), weather,
                                output.system_arm, scenario.profile)
        _write_ground_truth_csv(artifact("ground_truth_baseline.csv"),
                                weather, output.baseline_arm, scenario.profile)
        _write_irrigation_log(artifact("irrigation_log.csv"),
                              output.system_arm, output.baseline_arm)
        store.export(scenario.channel.channel_id,
                     artifact("channel_export.csv"),
                     artifact("channel_snapshot.jsonl"))
        dispatcher.export_csv(artifact("dispatch_log.csv"))
        _write_transport_csv(artifact("transport_stats.csv"),
                            output.transport_stats)
        artifact("report.txt").write(
            metrics.format_report_table(output.report))
        metrics.export_report_csv(output.report, artifact("report.csv"))
        metrics.export_radar_csv(output.report, artifact("radar.csv"))
        artifact("totals.json").write(json.dumps({
            "scenario": scenario.name,
            "observations": output.observations,
            "report_targets": scenario.report_targets,
            "totals": dataclasses.asdict(output.totals),
            "economics": output.economics,
        }, sort_keys=True, indent=2) + "\n")

    manifest_entries = [
        {"file": name, "sha256": written[name].sha256.hexdigest()}
        for name in sorted(written)]
    manifest_entries.append({"stream": "weather",
                             "sha256": _weather_digest(weather)})
    manifest_entries.append({"stream": "sensor_noise_system",
                             "sha256": output.system_arm.noise_digest})
    manifest_entries.append({"stream": "sensor_noise_baseline",
                             "sha256": output.baseline_arm.noise_digest})
    with (out / MANIFEST_NAME).open("w", encoding="utf-8") as fh:
        for entry in manifest_entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
