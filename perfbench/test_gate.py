"""Tests of the benchmark's correctness gate and tracer.

    python3 -m pytest perfbench

They run the real workloads on a four-day season so each op is short.
"""

import pytest

import calibrate
import layers
import run
import workloads
from agrisim import decision, pipeline
from tracer import Tracer

SEED = 7
DAYS = 4


def short_mapping() -> dict:
    raw = workloads.shipped_mapping()
    raw["season"]["days"] = DAYS
    return raw


@pytest.fixture(autouse=True)
def instant_kernel(monkeypatch):
    """The gate does not depend on the reference kernel; skip its cost."""
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda: 1.0)


@pytest.fixture
def dry(tmp_path):
    with workloads.SeasonDry(SEED, tmp_path, short_mapping()) as wl:
        yield wl


def failed(ops):
    return [op for op in ops if op["problems"]]


def test_clean_ops_pass_and_rerun(dry):
    ops = run.measure(dry, 0.0, {})
    assert len(ops) >= run.MIN_OPS
    assert failed(ops) == []


def test_corrupted_digest_counts_every_op_as_failed(dry):
    ops = run.measure(dry, 0.0, {str(SEED): "0" * 64})
    assert len(ops) >= run.MIN_OPS
    assert len(failed(ops)) == len(ops)
    assert all("digest" in op["problems"][0] for op in ops)


def test_broken_invariant_counts_as_failed_op(dry, monkeypatch):
    real = decision.schedule_season

    def unpaired(policy, setup, noise):
        result = real(policy, setup, noise)
        if policy == decision.CALENDAR_BASELINE:
            result.noise_digest = "not-the-system-arm-digest"
        return result

    monkeypatch.setattr(decision, "schedule_season", unpaired)
    ops = run.measure(dry, 0.0, {})
    assert len(failed(ops)) == len(ops) >= run.MIN_OPS
    assert all("noise" in op["problems"][0] for op in ops)


def test_raising_op_is_counted_and_the_run_goes_on(dry, monkeypatch):
    real = pipeline.run_season
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_season", flaky)
    ops = run.measure(dry, 0.0, {})
    assert len(ops) >= run.MIN_OPS
    assert [op["problems"] for op in failed(ops)] == [
        ["raised ValueError: injected"]]


def test_wet_lossy_keeps_qos_1_and_leaves_the_mapping_alone():
    raw = workloads.shipped_mapping()
    before = repr(raw)
    for _ in range(2):
        assert workloads.build_scenario("season-wet-lossy", raw).qos == 1
    assert repr(raw) == before


def test_traced_self_times_sum_to_op_time_and_counts_match(dry):
    tracer = Tracer()
    layers.install(tracer)
    try:
        ops = run.measure(dry, 0.0, {}, tracer)
    finally:
        tracer.unwrap_all()
    assert pipeline.run_season.__module__ == "agrisim.pipeline"
    assert tracer.missing == []
    assert failed(ops) == []
    summaries = tracer.summaries()
    traced = [summaries[i] for i, op in enumerate(ops) if op["traced"]]
    assert traced and len(traced) == len(ops) // 2
    for op in traced:
        assert op.self_sum_error() < run.SELF_SUM_TOL_S
        assert op.count("decision.schedule_season", "samples") == \
            2 * DAYS * 288
        assert op.call_count("fieldsim.sensor") == 4 * DAYS * 288


def test_missing_wrap_target_is_reported_not_fatal():
    tracer = Tracer()
    tracer.wrap(decision, "no_such_function", "decision.gone")
    assert tracer.missing == ["agrisim.decision.no_such_function"]
