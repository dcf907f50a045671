"""Where the traced run wraps agrisim, and the per-module metrics it reports.

``decision`` and ``pipeline`` import the fieldsim functions and
``generate_weather`` by name, so those are wrapped at ``decision.<fn>`` and
``pipeline.<fn>``; wrapping ``fieldsim.<fn>`` would miss every call.
Artifact writing has no public entry point, so it is timed at
``pipeline._write_artifacts``. Nothing in agrisim queues, so no module has a
wait time and none is reported.
"""

from __future__ import annotations

from agrisim import (alerting, decision, ingest, metrics, pipeline, scenario,
                     transport)


def _season_counts(args, result):
    return {"samples": len(result.samples), "alerts": len(result.alerts),
            "events": len(result.events)}


def _session_counts(args, stats):
    return {"attempts": stats.attempted + stats.retransmissions,
            "retransmissions": stats.retransmissions,
            "bytes_sent": stats.bytes_sent, "delivered": stats.delivered}


def _ingest_counts(args, result):
    return {"accepted": int(result.status == ingest.ACCEPTED),
            "rejected_rate": int(result.status == ingest.REJECTED_RATE)}


def _dispatch_counts(args, record):
    return {"sent": int(record.status == alerting.SENT),
            "suppressed": int(record.status == alerting.SUPPRESSED_DUPLICATE)}


def _artifact_counts(args, result):
    out_dir = args[0].out_dir
    return {"bytes": sum(p.stat().st_size for p in out_dir.iterdir()
                         if p.is_file())}


# (owner, attribute, span name, per-call leaf, counts)
TARGETS = [
    (scenario, "parse_scenario", "scenario.parse", False, None),
    (pipeline, "run_season", "pipeline.run_season", False, None),
    (pipeline, "generate_weather", "fieldsim.weather", False, None),
    (decision, "schedule_season", "decision.schedule_season", False,
     _season_counts),
    (decision, "sample_soil_sensor", "fieldsim.sensor", True, None),
    (decision, "sample_air_sensor", "fieldsim.sensor", True, None),
    (decision, "depletion_to_moisture_pct", "fieldsim.moisture_map", True,
     None),
    (decision, "moisture_pct_to_depletion", "fieldsim.moisture_map", True,
     None),
    (decision, "evaluate", "decision.evaluate", True, None),
    (pipeline, "packets_from_samples", "pipeline.packets", False, None),
    (transport, "run_session", "transport.run_session", False,
     _session_counts),
    (ingest.ChannelStore, "ingest", "ingest.ingest", True, _ingest_counts),
    (alerting.MessageCatalog, "default", "alerting.catalog_load", False,
     None),
    (alerting.Dispatcher, "dispatch_alert", "alerting.dispatch", True,
     _dispatch_counts),
    (metrics, "build_report", "metrics.report", False, None),
    (metrics, "format_report_table", "metrics.report", False, None),
    (metrics, "export_report_csv", "metrics.report", False, None),
    (metrics, "export_radar_csv", "metrics.report", False, None),
    (pipeline, "_write_artifacts", "pipeline.artifacts", False,
     _artifact_counts),
]


def install(tracer) -> None:
    for owner, attr, name, leaf, counts in TARGETS:
        tracer.wrap(owner, attr, name, leaf=leaf, counts=counts)


def _pair(num, den):
    return None if num is None else (num, den)


# metric -> (unit, value of one traced op's summary, or None when absent).
# A "ratio" metric's value is a (numerator, denominator) pair.
PER_OP = {
    "fieldsim.sensor_s": ("s", lambda o: o.self_time("fieldsim.sensor")),
    "fieldsim.sensor_calls": ("count",
                              lambda o: o.call_count("fieldsim.sensor")),
    "fieldsim.moisture_map_s": ("s",
                                lambda o: o.self_time("fieldsim.moisture_map")),
    "fieldsim.weather_s": ("s", lambda o: o.self_time("fieldsim.weather")),
    "decision.self_s": ("s",
                        lambda o: o.self_time("decision.schedule_season")),
    "decision.evaluate_s": ("s", lambda o: o.self_time("decision.evaluate")),
    "decision.samples": ("count", lambda o: o.count(
        "decision.schedule_season", "samples")),
    "decision.alerts": ("count", lambda o: o.count(
        "decision.schedule_season", "alerts")),
    "decision.events": ("count", lambda o: o.count(
        "decision.schedule_season", "events")),
    "transport.self_s": ("s", lambda o: o.self_time("transport.run_session")),
    "transport.attempts": ("count", lambda o: o.count(
        "transport.run_session", "attempts")),
    "transport.retransmissions": ("count", lambda o: o.count(
        "transport.run_session", "retransmissions")),
    "transport.bytes_sent": ("B", lambda o: o.count(
        "transport.run_session", "bytes_sent")),
    "transport.delivery_ratio": ("ratio", lambda o: _pair(
        o.count("transport.run_session", "delivered"),
        o.count("transport.run_session", "attempts"))),
    "ingest.ingest_s": ("s", lambda o: o.self_time("ingest.ingest")),
    "ingest.accepted": ("count",
                        lambda o: o.count("ingest.ingest", "accepted")),
    "ingest.rejected_rate": ("count",
                             lambda o: o.count("ingest.ingest",
                                               "rejected_rate")),
    "ingest.accept_ratio": ("ratio", lambda o: _pair(
        o.count("ingest.ingest", "accepted"),
        o.call_count("ingest.ingest"))),
    "alerting.catalog_load_s": ("s",
                                lambda o: o.self_time("alerting.catalog_load")),
    "alerting.dispatch_s": ("s", lambda o: o.self_time("alerting.dispatch")),
    "alerting.sent": ("count", lambda o: o.count("alerting.dispatch", "sent")),
    "alerting.suppressed": ("count",
                            lambda o: o.count("alerting.dispatch",
                                              "suppressed")),
    "alerting.sent_ratio": ("ratio", lambda o: _pair(
        o.count("alerting.dispatch", "sent"),
        o.call_count("alerting.dispatch"))),
    "pipeline.packets_s": ("s", lambda o: o.self_time("pipeline.packets")),
    "pipeline.artifacts_s": ("s",
                             lambda o: o.self_time("pipeline.artifacts")),
    "pipeline.artifact_bytes": ("B", lambda o: o.count("pipeline.artifacts",
                                                       "bytes")),
    "pipeline.self_s": ("s", lambda o: o.self_time("pipeline.run_season")),
    "metrics.report_s": ("s", lambda o: o.self_time("metrics.report")),
}

# measured on the setup root spans, not on ops
PER_SETUP = {
    "scenario.parse_s": ("s", lambda o: o.self_time("scenario.parse")),
}

# derived from op times: traced minus untraced median, and the traced median
TRACE = {
    "trace.overhead_s": "s",
    "trace.op_s": "s",
}

UNITS = {**{k: u for k, (u, _) in PER_OP.items()},
         **{k: u for k, (u, _) in PER_SETUP.items()}, **TRACE}
