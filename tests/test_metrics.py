"""Metrics: efficiency/yield/economics formulas against closed-form oracles
and the seven-row threshold report."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrisim.errors import ConfigurationError, InputError
from agrisim.metrics import (
    LITERS_PER_ACRE_MM,
    ROW_ABOVE_THRESHOLD,
    ROW_ALERT_ABOVE,
    ROW_PERFORMANCE,
    ROW_WITHIN,
    STATUS_ABOVE,
    STATUS_ALERT,
    STATUS_BELOW_TARGET,
    STATUS_EXCEEDED,
    STATUS_WITHIN,
    EconomicParams,
    build_report,
    export_report_csv,
    format_report_table,
    radar_data,
    revenue_gain_ugx,
    row_status,
    water_efficiency_pct,
    yield_from_water_stress,
    yield_improvement_pct,
)

# recorded/threshold pairs reproducing the documented validation table
VALIDATION_OBSERVATIONS = {
    "Temperature": 37.0,
    "Humidity": 70.0,
    "Soil Moisture": 40.0,
    "Data Transmission": 98.0,
    "Water Usage": 27.3,
    "Crop Yield": 22.0,
    "Energy Efficiency": 95.0,
}
VALIDATION_THRESHOLDS = {
    "Temperature": 35.0,
    "Humidity": 70.0,
    "Soil Moisture": 30.0,
    "Data Transmission": 95.0,
    "Water Usage": 25.0,
    "Crop Yield": 20.0,
    "Energy Efficiency": 90.0,
}
VALIDATION_STATUSES = {
    "Temperature": STATUS_ALERT,
    "Humidity": STATUS_WITHIN,
    "Soil Moisture": STATUS_ABOVE,
    "Data Transmission": STATUS_EXCEEDED,
    "Water Usage": STATUS_EXCEEDED,
    "Crop Yield": STATUS_EXCEEDED,
    "Energy Efficiency": STATUS_EXCEEDED,
}


class TestWaterEfficiency:
    def test_documented_example(self):
        assert water_efficiency_pct(1000.0, 727.0) == pytest.approx(27.3)

    def test_acre_scale_example(self):
        # 1832 vs 1332 liters: 500 L saved, ~27.29% reduction
        assert water_efficiency_pct(1832.0, 1332.0) == pytest.approx(
            500.0 / 1832.0 * 100.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(InputError):
            water_efficiency_pct(0.0, 10.0)

    @given(st.floats(1.0, 1e7), st.floats(0.0, 1e7), st.floats(0.01, 100.0))
    @settings(max_examples=1000, deadline=None)
    def test_formula_oracle_and_scale_invariance(self, base, system, scale):
        got = water_efficiency_pct(base, system)
        assert got == pytest.approx((base - system) / base * 100.0,
                                    rel=1e-12, abs=1e-12)
        assert water_efficiency_pct(base * scale, system * scale) == \
            pytest.approx(got, rel=1e-9, abs=1e-9)


class TestYieldImprovement:
    def test_twenty_percent(self):
        assert yield_improvement_pct(1200.0, 1000.0) == pytest.approx(20.0)

    def test_twenty_two_percent(self):
        assert yield_improvement_pct(1220.0, 1000.0) == pytest.approx(22.0)

    @given(st.floats(0.0, 1e6), st.floats(1.0, 1e6))
    @settings(max_examples=1000, deadline=None)
    def test_formula_oracle(self, system, base):
        assert yield_improvement_pct(system, base) == pytest.approx(
            (system - base) / base * 100.0, rel=1e-12, abs=1e-12)


class TestYieldFromWaterStress:
    def test_no_stress_full_yield(self):
        assert yield_from_water_stress(300.0, 300.0, 1.25, 1250.0) == 1250.0

    def test_default_ky_arithmetic(self):
        # ETa/ETm = 0.8 with Ky = 1.25 -> Ya = 0.75 * Ym
        assert yield_from_water_stress(240.0, 300.0, 1.25, 1000.0) == \
            pytest.approx(750.0)

    def test_clamped_at_zero(self):
        assert yield_from_water_stress(0.0, 300.0, 1.25, 1000.0) == 0.0

    def test_eta_above_etm_rejected(self):
        with pytest.raises(InputError):
            yield_from_water_stress(301.0, 300.0, 1.25, 1000.0)

    @given(st.floats(1.0, 1000.0), st.floats(0.0, 1.0), st.floats(0.1, 2.0),
           st.floats(0.0, 5000.0))
    @settings(max_examples=1000, deadline=None)
    def test_formula_oracle(self, etm, frac, ky, ym):
        eta = frac * etm
        got = yield_from_water_stress(eta, etm, ky, ym)
        assert got == pytest.approx(max(ym * (1 - ky * (1 - eta / etm)), 0.0),
                                    rel=1e-12, abs=1e-9)

    @given(st.floats(1.0, 1000.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_monotone_in_eta(self, etm, f1, f2):
        lo, hi = sorted([f1, f2])
        y_lo = yield_from_water_stress(lo * etm, etm, 1.25, 1000.0)
        y_hi = yield_from_water_stress(hi * etm, etm, 1.25, 1000.0)
        assert y_hi >= y_lo - 1e-9


class TestEconomics:
    def test_documented_revenue_example(self):
        # 200 kg extra at 2,500 UGX/kg
        assert revenue_gain_ugx(200.0, 2500.0) == 500_000.0

    def test_cost_savings_arithmetic(self, default_scenario, default_run):
        # the season economics recomputed from the run's own totals
        econ, t = default_scenario.economics, default_run.totals
        base = (t.baseline_water_l_per_acre * econ.water_cost_ugx_per_l
                + t.baseline_event_count * econ.labor_cost_ugx_per_event)
        system = (t.system_water_l_per_acre * econ.water_cost_ugx_per_l
                  + t.system_event_count * econ.labor_cost_ugx_per_event)
        extra_kg = t.system_yield_kg_per_acre - t.baseline_yield_kg_per_acre
        assert default_run.economics == pytest.approx({
            "baseline_cost_ugx": base,
            "system_cost_ugx": system,
            "cost_savings_ugx": base - system,
            "cost_savings_fraction_pct": (base - system) / base * 100.0,
            "revenue_gain_ugx": max(extra_kg, 0.0)
            * econ.maize_price_ugx_per_kg,
        }, rel=1e-12)
        assert default_run.economics["cost_savings_ugx"] > 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(InputError):
            revenue_gain_ugx(-1.0, 2500.0)
        with pytest.raises(ConfigurationError):
            EconomicParams(maize_price_ugx_per_kg=-1.0)

    def test_liters_per_acre_mm_constant(self):
        assert LITERS_PER_ACRE_MM == pytest.approx(4046.86)


class TestReport:
    def test_validation_table_statuses(self):
        report = build_report(VALIDATION_OBSERVATIONS, VALIDATION_THRESHOLDS)
        assert len(report) == 7
        for row in report:
            assert row.status == VALIDATION_STATUSES[row.parameter]

    def test_missing_parameter_rejected(self):
        observations = dict(VALIDATION_OBSERVATIONS)
        del observations["Humidity"]
        with pytest.raises(InputError):
            build_report(observations, VALIDATION_THRESHOLDS)

    @given(st.floats(-100, 200), st.floats(-100, 200))
    @settings(max_examples=1000, deadline=None)
    def test_status_purity_and_exclusivity(self, recorded, threshold):
        # each kind yields exactly one of its two statuses, repeatably
        assert row_status(recorded, threshold, ROW_ALERT_ABOVE) == (
            STATUS_ALERT if recorded > threshold else STATUS_WITHIN)
        assert row_status(recorded, threshold, ROW_WITHIN) == (
            STATUS_WITHIN if recorded <= threshold else STATUS_ALERT)
        assert row_status(recorded, threshold, ROW_ABOVE_THRESHOLD) == (
            STATUS_ABOVE if recorded > threshold else STATUS_ALERT)
        assert row_status(recorded, threshold, ROW_PERFORMANCE) == (
            STATUS_EXCEEDED if recorded >= threshold else STATUS_BELOW_TARGET)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            row_status(1.0, 2.0, "vibes")

    def test_radar_ratios(self):
        report = build_report(VALIDATION_OBSERVATIONS, VALIDATION_THRESHOLDS)
        rows = radar_data(report)
        assert len(rows) == 7
        for name, recorded, target, ratio in rows:
            assert ratio == pytest.approx(recorded / target)
        by_name = {name: ratio for name, _, _, ratio in rows}
        assert by_name["Water Usage"] == pytest.approx(27.3 / 25.0)

    def test_radar_rejects_zero_target(self):
        thresholds = {**VALIDATION_THRESHOLDS, "Humidity": 0.0}
        report = build_report(VALIDATION_OBSERVATIONS, thresholds)
        with pytest.raises(InputError, match="zero target for Humidity"):
            radar_data(report)
        with pytest.raises(InputError, match="empty report"):
            radar_data(())

    def test_table_render_contains_all_rows(self):
        report = build_report(VALIDATION_OBSERVATIONS, VALIDATION_THRESHOLDS)
        text = format_report_table(report)
        lines = text.splitlines()
        assert len(lines) == 8
        for parameter in VALIDATION_OBSERVATIONS:
            assert any(line.startswith(parameter) for line in lines)
        assert "Exceeded" in text and "Within Range" in text

    def test_csv_export_round_trip_values(self):
        report = build_report(VALIDATION_OBSERVATIONS, VALIDATION_THRESHOLDS)
        buf = io.StringIO(newline="")
        export_report_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 8
        parsed = [line.split(",") for line in lines[1:]]
        for parameter, recorded, _, _, status in parsed:
            assert float(recorded) == VALIDATION_OBSERVATIONS[parameter]
            assert status == VALIDATION_STATUSES[parameter]


class TestNumericalStability:
    def test_large_scale_water_numbers(self):
        # hectare-scale magnitudes stay accurate
        rng = np.random.default_rng(5)
        for _ in range(100):
            base = float(rng.uniform(1e5, 1e9))
            system = base * float(rng.uniform(0.5, 1.0))
            got = water_efficiency_pct(base, system)
            assert got == pytest.approx((1 - system / base) * 100.0, rel=1e-9)
