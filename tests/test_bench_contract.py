"""The benchmark under perfbench/ drives agrisim by name: its traced run
wraps the attributes listed in perfbench/layers.py, its gate tests wrap
decision.schedule_season as (policy, scenario, noise) and pass the third
argument (the season inputs) through positionally, its season workloads
check each run's daily records and its captured channel store and
dispatcher against the model invariants and a pinned digest, and its
transport-sweep workload calls transport.run_session on a list of
TelemetryPacket and pins a digest of the returned stats. These tests keep
that contract in the tier-1 suite, so a cleanup that breaks the benchmark
fails here too."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from agrisim import decision, pipeline, transport
from agrisim.decision import CropCalendar
from agrisim.fieldsim import generate_weather

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in load_perfbench("layers").TARGETS
               if not hasattr(owner, attr)]
    assert missing == []


def test_traced_season_wraps_every_target_and_counts_both_arms(
        default_scenario):
    # the traced mode's own calls: every wrap is installed, and each counts
    # callable reads the real results of one in-memory season
    tracer = load_perfbench("tracer").Tracer()
    load_perfbench("layers").install(tracer)
    try:
        with tracer.op(0):
            output = pipeline.run_season(default_scenario)
    finally:
        tracer.unwrap_all()
    assert tracer.missing == []
    summary = tracer.summaries()[0]
    arms = (output.system_arm, output.baseline_arm)
    for key in ("samples", "alerts", "events"):
        assert summary.count("decision.schedule_season", key) == \
            sum(len(getattr(arm, key)) for arm in arms)


def test_transport_stats_fields_are_the_pinned_ones():
    # the pinned digests hash dataclasses.asdict(stats): an added, removed or
    # renamed field changes every transport pin
    assert [f.name for f in dataclasses.fields(transport.TransportStats)] == [
        "attempted", "delivered", "retransmissions", "bytes_sent",
        "energy_mwh", "latency_sum_s"]


def test_run_session_on_packet_lists_matches_the_transport_pins():
    # the transport-sweep workload's own calls:
    # run_session(packets, protocol, qos, link, energy, rng, days=...)
    workloads = load_perfbench("workloads")
    pins = json.loads((PERFBENCH / "pinned.json").read_text())
    for seed in (0, 1, 42):
        sweep = workloads.TransportSweep(seed, None)
        assert type(sweep.packets) is list
        assert type(sweep.packets[0]) is transport.TelemetryPacket
        for key in sweep.keys:
            digest, problems = sweep.check(key, sweep.start(key)())
            assert problems == []
            assert digest == pins["transport-sweep"][sweep.pin_key(key)]


@pytest.mark.parametrize("workload", ["season-dry", "season-wet-lossy"])
def test_season_workloads_pass_their_gate_at_the_pinned_seeds(workload,
                                                             tmp_path):
    # the season gate's own calls, as perfbench/pin.py makes them
    workloads = load_perfbench("workloads")
    pins = json.loads((PERFBENCH / "pinned.json").read_text())
    for seed in (0, 1, 42):
        with workloads.WORKLOADS[workload](seed, tmp_path) as wl:
            digest, problems = wl.check(seed, wl.start(seed)())
        assert problems == []
        assert digest == pins[workload][wl.pin_key(seed)]


def test_schedule_season_takes_policy_scenario_noise_positionally(
        default_scenario):
    days = 4
    scenario = dataclasses.replace(
        default_scenario,
        season=dataclasses.replace(default_scenario.season, days=days),
        calendar=CropCalendar.maize(days))
    drivers = decision.season_drivers(
        scenario, generate_weather(scenario.season, scenario.seed), 0)
    result = decision.schedule_season(decision.SENSOR_DRIVEN, scenario,
                                      drivers)
    assert len(result.samples) == days * 288
