"""Acceptance gate: the ten headline guarantees of the simulator.

Each test prints a single ``ACCEPTANCE nn name: PASS|FAIL`` line so the gate
can be audited from raw test output.
"""

import hashlib
import io
import time

import numpy as np
import pytest

from agrisim import decision, metrics, pipeline, transport
from agrisim.alerting import (
    AlertingParams,
    Dispatcher,
    GatewayConfig,
    MessageCatalog,
)
from agrisim.fieldsim import SoilProfile, step_soil_water, WeatherDay
from agrisim.scenario import default_scenario_path

# the default scenario is part of the contract: its bands below are only
# guaranteed for exactly this committed file
SCENARIO_SHA256 = "2521cdaa8324a48ae197e3afba870dcb8b6e7175a969bea20aac570269ecac66"

SEASON_PACKETS = 17_280


@pytest.fixture
def announce(capsys):
    def _announce(number, name, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return _announce


def _packets(n):
    return [transport.TelemetryPacket(sequence_no=i + 1, timestamp_s=300.0 * i,
                                      moisture_pct=40.0, temp_c=22.0,
                                      humidity_pct=45.0)
            for i in range(n)]


def test_01_transmission_success(announce, default_scenario):
    ok = False
    try:
        start = time.monotonic()
        stats = transport.run_session(
            _packets(SEASON_PACKETS), transport.PUBSUB, 0,
            transport.LinkModel(loss_prob=0.02), transport.EnergyModel(),
            np.random.default_rng(default_scenario.seed))
        elapsed = time.monotonic() - start
        assert stats.attempted == SEASON_PACKETS
        assert stats.delivery_rate == pytest.approx(0.98, abs=0.005)
        assert elapsed < 5.0
        ok = True
    finally:
        announce(1, "transmission-success", ok)


def test_02_energy_totals_and_ratio(announce):
    ok = False
    try:
        start = time.monotonic()
        link = transport.LinkModel(loss_prob=0.02)
        energy = transport.EnergyModel()
        ps = transport.run_session(_packets(SEASON_PACKETS), transport.PUBSUB,
                                   0, link, energy, np.random.default_rng(0))
        rr = transport.run_session(_packets(SEASON_PACKETS), transport.REQRESP,
                                   0, link, energy, np.random.default_rng(0))
        assert ps.energy_mwh == pytest.approx(850.0, rel=0.01)
        assert rr.energy_mwh == pytest.approx(1000.0, rel=0.01)
        assert ps.energy_mwh / rr.energy_mwh == pytest.approx(0.85, abs=0.01)
        assert time.monotonic() - start < 5.0
        ok = True
    finally:
        announce(2, "energy-totals", ok)


def test_03_latency_constants(announce):
    ok = False
    try:
        link = transport.LinkModel(loss_prob=0.0)
        ps = transport.run_session(_packets(100), transport.PUBSUB, 0, link,
                                   transport.EnergyModel(),
                                   np.random.default_rng(0))
        rr = transport.run_session(_packets(100), transport.REQRESP, 0, link,
                                   transport.EnergyModel(),
                                   np.random.default_rng(0))
        assert ps.mean_latency_s == 3.0
        assert rr.mean_latency_s == 10.0
        ok = True
    finally:
        announce(3, "latency-constants", ok)


def test_04_water_savings_band(announce, default_run):
    ok = False
    try:
        with default_scenario_path() as path:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SCENARIO_SHA256, "default scenario file changed"
        reduction = default_run.observations["Water Usage"]
        assert 25.0 <= reduction <= 30.0
        ok = True
    finally:
        announce(4, "water-savings", ok)


def test_05_yield_improvement_band(announce, default_scenario, default_run):
    ok = False
    try:
        assert default_scenario.yield_model.ky == 1.25
        improvement = default_run.observations["Crop Yield"]
        assert 20.0 <= improvement <= 24.0
        ok = True
    finally:
        announce(5, "yield-improvement", ok)


def test_06_economics(announce, default_run):
    ok = False
    try:
        assert metrics.revenue_gain_ugx(200.0, 2500.0) == 500_000.0
        fraction = default_run.economics["cost_savings_fraction_pct"]
        assert 20.0 <= fraction <= 30.0
        ok = True
    finally:
        announce(6, "economics", ok)


def test_07_validation_table_reproduction(announce):
    ok = False
    try:
        observations = {
            "Temperature": 37.0, "Humidity": 70.0, "Soil Moisture": 40.0,
            "Data Transmission": 98.0, "Water Usage": 27.3,
            "Crop Yield": 22.0, "Energy Efficiency": 95.0}
        thresholds = {
            "Temperature": 35.0, "Humidity": 70.0, "Soil Moisture": 30.0,
            "Data Transmission": 95.0, "Water Usage": 25.0,
            "Crop Yield": 20.0, "Energy Efficiency": 90.0}
        report = metrics.build_report(observations, thresholds)
        expected = ["Alert", "Within Range", "Above Threshold", "Exceeded",
                    "Exceeded", "Exceeded", "Exceeded"]
        assert [r.status for r in report.rows] == expected
        ok = True
    finally:
        announce(7, "validation-table", ok)


def test_08_alert_golden_and_encoding(announce):
    ok = False
    try:
        catalog = MessageCatalog.default()
        text = catalog.render("irrigate_low_moisture", "en",
                              {"moisture_pct": 22})
        assert text == ("Soil moisture is 22%! You are advised to irrigate "
                        "today to prevent yield loss.")
        # the alert ends in the dispatch log as that text, unquoted
        d = Dispatcher(catalog, GatewayConfig(), AlertingParams(), "field-1")
        d.dispatch_alert(decision.ALERT_KINDS.index(decision.MOISTURE_LOW),
                         22.0, 25.0)
        log = io.StringIO(newline="")
        d.export_csv(log)
        assert log.getvalue().splitlines()[1].split(",")[6] == text
        ok = True
    finally:
        announce(8, "alert-golden", ok)


def test_09_property_suites(announce, default_scenario, tmp_path):
    ok = False
    try:
        rng = np.random.default_rng(99)
        profile = SoilProfile()

        # soil-water conservation and depletion bounds, 1000 random steps
        dep = 0.0
        for i in range(1000):
            rain, irr = rng.uniform(0, 30, 2)
            etc = float(rng.uniform(0, 10))
            day = WeatherDay(day_index=i, day_of_year=1 + i % 365,
                             t_min_c=18.0, t_max_c=28.0,
                             rh_mean_pct=45.0, rain_mm=float(rain))
            dep_end, eta, drain = step_soil_water(dep, day, float(irr), etc,
                                                  profile)
            assert abs((rain + irr) - (eta + drain) + (dep_end - dep)) < 1e-9
            assert 0.0 <= dep_end <= profile.taw_mm
            dep = dep_end

        # closed-form metric formulas to 1e-12 relative
        for _ in range(1000):
            base = float(rng.uniform(1.0, 1e6))
            system = float(rng.uniform(0.0, base))
            got = metrics.water_efficiency_pct(base, system)
            want = (base - system) / base * 100.0
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

        # advice monotone in sensed moisture
        lo, hi = np.sort(rng.uniform(0, 100, (1000, 2)), axis=1).T
        depth = decision._refill_depth(
            np.concatenate((lo, hi)), np.full(2000, 20.0),
            decision.Thresholds(), 25.0)
        depth_lo, depth_hi = depth[:1000], depth[1000:]
        assert np.all(depth_hi[depth_lo == 0.0] == 0.0)

        # dedup: at most one send per window for one key
        for _ in range(1000):
            window = float(rng.uniform(60, 86_400))
            clocks = np.sort(rng.integers(0, 5 * 86_400, 12))
            d = Dispatcher(MessageCatalog.default(), GatewayConfig(),
                           AlertingParams(dedup_window_s=window), "field-1")
            low = decision.ALERT_KINDS.index(decision.MOISTURE_LOW)
            d.dispatch(decision.Alerts(np.full(12, low), np.full(12, 22.0),
                                       np.full(12, 25.0), clocks))
            sent = [t for t, s in zip(clocks.tolist(), d.records.status)
                    if s == "SENT"]
            assert all(b - a >= window for a, b in zip(sent, sent[1:]))

        # QoS1 delivers a superset of QoS0 on the same attempt stream
        packet = _packets(1)
        for _ in range(1000):
            loss = float(rng.uniform(0, 0.9))
            seed = int(rng.integers(0, 2 ** 31))
            link = transport.LinkModel(loss_prob=loss, max_retries=3)
            s0, s1 = (transport.run_session(packet, transport.PUBSUB, qos,
                                            link, transport.EnergyModel(),
                                            np.random.default_rng(seed))
                      for qos in (0, 1))
            assert s1.delivered >= s0.delivered

        # end-to-end determinism: identical manifests across two runs
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        pipeline.run_season(default_scenario, out_dir=a_dir)
        pipeline.run_season(default_scenario, out_dir=b_dir)
        assert (a_dir / "manifest.jsonl").read_bytes() == \
            (b_dir / "manifest.jsonl").read_bytes()
        ok = True
    finally:
        announce(9, "property-suites", ok)


def test_10_et_kernels_against_oracle(announce):
    ok = False
    try:
        rng = np.random.default_rng(7)
        for _ in range(1000):
            lat = float(rng.uniform(-60, 60))
            doy = int(rng.integers(1, 366))
            t_min = float(rng.uniform(-5, 30))
            t_max = t_min + float(rng.uniform(0.1, 20))

            # brute-force reimplementation, kept deliberately verbose
            phi = lat * np.pi / 180.0
            b = 2.0 * np.pi * doy / 365.0
            dr = 1.0 + 0.033 * np.cos(b)
            delta = 0.409 * np.sin(b - 1.39)
            ws = np.arccos(np.clip(-np.tan(phi) * np.tan(delta), -1, 1))
            ra = (24 * 60 / np.pi) * 0.0820 * dr * (
                ws * np.sin(phi) * np.sin(delta)
                + np.cos(phi) * np.cos(delta) * np.sin(ws))
            et0 = max(0.0023 * 0.408 * ra * ((t_min + t_max) / 2 + 17.8)
                      * np.sqrt(t_max - t_min), 0.0)

            assert decision.extraterrestrial_radiation(lat, doy) == \
                pytest.approx(float(ra), abs=1e-9)
            assert decision.et0_hargreaves(t_min, t_max, lat, doy) == \
                pytest.approx(float(et0), abs=1e-9)

        assert decision.et0_hargreaves(20.0, 20.0, 0.4, 100) == 0.0
        ok = True
    finally:
        announce(10, "et-kernels", ok)
