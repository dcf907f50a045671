"""Field simulation: weather envelope, soil bucket, sensor calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrisim.errors import ConfigurationError, InputError
from agrisim.fieldsim import (
    SeasonConfig,
    SensorSpec,
    SoilProfile,
    WeatherDay,
    _round_tenths,
    depletion_to_moisture_pct,
    generate_weather,
    ks_stress,
    moisture_pct_to_depletion,
    sample_air_sensor,
    sample_soil_sensor,
    soil_raw_counts,
    step_soil_water,
)
from agrisim.scenario import load_default_scenario

PROFILE = SoilProfile()


def _day(rain=0.0, t_min=18.0, t_max=28.0, rh=45.0, idx=0):
    return WeatherDay(day_index=idx, day_of_year=200, t_min_c=t_min,
                      t_max_c=t_max, rh_mean_pct=rh, rain_mm=rain)


class TestWeather:
    def test_deterministic_per_seed(self):
        cfg = SeasonConfig(days=60)
        assert generate_weather(cfg, 42) == generate_weather(cfg, 42)

    def test_different_seeds_differ(self):
        cfg = SeasonConfig(days=60)
        assert generate_weather(cfg, 1) != generate_weather(cfg, 2)

    def test_dry_season_has_no_rain(self):
        for w in generate_weather(SeasonConfig(days=60), 7):
            assert w.rain_mm == 0.0

    def test_envelope_respected(self):
        # default envelope: 15-30 C mean temperature, 30-60% humidity
        for w in generate_weather(SeasonConfig(days=60), 42):
            assert 15.0 <= (w.t_min_c + w.t_max_c) / 2.0 <= 30.0
            assert 15.0 <= w.t_min_c <= w.t_max_c <= 30.0
            assert 30.0 <= w.rh_mean_pct <= 60.0

    def test_reversed_envelope_rejected(self):
        with pytest.raises(ConfigurationError):
            SeasonConfig(days=10, temp_envelope_c=(30.0, 15.0))
        with pytest.raises(ConfigurationError):
            SeasonConfig(days=10, rh_envelope_pct=(60.0, 30.0))

    def test_zero_length_season_rejected(self):
        with pytest.raises(ConfigurationError):
            SeasonConfig(days=0)

    @pytest.mark.parametrize("field, value", [
        ("rain_probability", -0.5), ("rain_probability", 1.5),
        ("rain_mean_mm", -1.0)])
    def test_rain_parameters_out_of_range_rejected(self, field, value):
        # a negative probability used to mean no rain, and a negative mean
        # failed mid-run in rng.exponential
        with pytest.raises(ConfigurationError, match=field):
            SeasonConfig(days=10, dry_season=False, **{field: value})


class TestSoilStep:
    def test_zero_forcing_only_advances_day(self):
        assert step_soil_water(20.0, _day(), 0.0, 0.0, PROFILE) == (
            20.0, 0.0, 0.0)

    def test_surplus_irrigation_drains(self):
        taw = PROFILE.taw_mm
        irrigation = taw  # more than the deficit
        dep, _, drainage = step_soil_water(taw / 2, _day(), irrigation, 0.0,
                                           PROFILE)
        assert dep == 0.0
        assert drainage == pytest.approx(irrigation - taw / 2)

    def test_negative_input_rejected(self):
        with pytest.raises(InputError):
            step_soil_water(0.0, _day(), -1.0, 0.0, PROFILE)
        with pytest.raises(InputError):
            step_soil_water(0.0, _day(), 0.0, float("nan"), PROFILE)

    def test_trajectory_matches_fine_step_oracle(self):
        # independent hourly integration of the same bucket balance
        rng = np.random.default_rng(3)
        etc_series = rng.uniform(1.0, 4.5, size=60)
        irrigation = [8.0 if d % 3 == 0 else 0.0 for d in range(60)]

        depletion = 30.0
        for d in range(60):
            depletion, _, _ = step_soil_water(depletion, _day(idx=d),
                                              irrigation[d],
                                              float(etc_series[d]), PROFILE)

        dep = 30.0
        taw = PROFILE.taw_mm
        for d in range(60):
            for _ in range(24):
                water_in = irrigation[d] / 24.0
                drain = max(0.0, water_in - dep)
                dep = max(0.0, dep - water_in)
                ks = ks_stress(dep, PROFILE)
                eta = min(etc_series[d] / 24.0 * ks, taw - dep)
                dep += eta
        assert abs(depletion - dep) < 0.5

    @given(st.lists(st.tuples(st.floats(0, 30), st.floats(0, 30),
                              st.floats(0, 10)), min_size=1, max_size=80))
    @settings(max_examples=1000, deadline=None)
    def test_conservation_and_bounds(self, forcing):
        dep = 0.0
        for i, (rain, irr, etc) in enumerate(forcing):
            day = _day(rain=rain, idx=i)
            dep_end, eta, drain = step_soil_water(dep, day, irr, etc, PROFILE)
            # exact water conservation per step
            assert abs((rain + irr) - (eta + drain) + (dep_end - dep)) < 1e-9
            assert 0.0 <= dep_end <= PROFILE.taw_mm
            dep = dep_end

    def test_ks_is_a_python_float_equal_to_the_clipped_ratio(self):
        taw, p = PROFILE.taw_mm, PROFILE.depletion_fraction_p
        raw = p * taw
        grid = [0.0, raw, taw, np.nextafter(raw, 0.0), np.nextafter(raw, taw),
                np.nextafter(taw, 0.0), -1.0, taw + 1.0,
                *np.linspace(0.0, taw, 257)]
        for dep in map(float, grid):
            ks = ks_stress(dep, PROFILE)
            expected = float(np.clip((taw - dep) / (taw * (1.0 - p)), 0, 1))
            assert type(ks) is float and ks.hex() == expected.hex(), dep

    @given(st.floats(0.0, 1.0))
    def test_ks_in_unit_interval_and_one_below_raw(self, frac):
        dep = frac * PROFILE.taw_mm
        ks = ks_stress(dep, PROFILE)
        assert 0.0 <= ks <= 1.0
        if dep <= PROFILE.depletion_fraction_p * PROFILE.taw_mm:
            assert ks == 1.0


class TestShippedProfileAgainstFao56:
    """The shipped soil profile's bucket, worked by hand from FAO-56:
    theta_FC 0.30, theta_WP 0.157, Zr 0.34 m, p 0.55."""

    PROFILE = load_default_scenario().profile

    def test_taw_fao56_eq_82(self):
        # TAW = 1000 (theta_FC - theta_WP) Zr = 1000 * 0.143 * 0.34
        assert self.PROFILE.taw_mm == pytest.approx(48.62, abs=1e-9)

    def test_ks_fao56_eq_84_midway_between_raw_and_taw(self):
        # RAW = p TAW = 26.741 mm (eq. 83); midway to TAW, Dr = 37.6805 mm,
        # Ks = (TAW - Dr) / ((1 - p) TAW) = 10.9395 / 21.879 = 0.5
        assert ks_stress(37.6805, self.PROFILE) == pytest.approx(0.5,
                                                                  abs=1e-9)
        assert ks_stress(26.741, self.PROFILE) == pytest.approx(1.0)
        assert ks_stress(48.62, self.PROFILE) == pytest.approx(0.0, abs=1e-9)


class TestDisplayScale:
    def test_zero_depletion_is_field_capacity_point(self):
        expected = 100.0 * (PROFILE.theta_fc - PROFILE.theta_ad) / (
            PROFILE.theta_sat - PROFILE.theta_ad)
        assert depletion_to_moisture_pct(0.0, PROFILE) == pytest.approx(expected)

    def test_scale_anchors(self):
        # theta at air-dry -> 0%, theta at saturation -> 100%
        dep_at_ad = (PROFILE.theta_fc - PROFILE.theta_ad) * 1000 * PROFILE.root_depth_m
        # air-dry lies beyond TAW, so check through the inverse map instead
        assert moisture_pct_to_depletion(0.0, PROFILE) == pytest.approx(dep_at_ad)
        assert moisture_pct_to_depletion(100.0, PROFILE) == pytest.approx(
            (PROFILE.theta_fc - PROFILE.theta_sat) * 1000 * PROFILE.root_depth_m)

    def test_out_of_range_depletion_rejected(self):
        with pytest.raises(InputError):
            depletion_to_moisture_pct(-1.0, PROFILE)
        with pytest.raises(InputError):
            depletion_to_moisture_pct(PROFILE.taw_mm + 1.0, PROFILE)

    def test_one_out_of_range_element_rejects_the_array(self):
        deps = np.array([0.0, PROFILE.taw_mm / 2, PROFILE.taw_mm + 1.0])
        with pytest.raises(InputError):
            depletion_to_moisture_pct(deps, PROFILE)

    @given(st.floats(0.0, 1.0))
    def test_round_trip_within_taw(self, frac):
        dep = frac * PROFILE.taw_mm
        pct = depletion_to_moisture_pct(dep, PROFILE)
        assert moisture_pct_to_depletion(pct, PROFILE) == pytest.approx(
            dep, abs=1e-9)


def _soil(true_pct, spec, noise_z):
    return sample_soil_sensor(np.array([true_pct]), spec, noise_z)[0]


def _air(t_true, rh_true, sigma, rng):
    z = rng.standard_normal(2)
    t, rh = sample_air_sensor(np.array([t_true]), rh_true, sigma, z[:1], z[1:])
    return t[0], rh[0]


class TestSoilSensor:
    def test_noiseless_round_trip(self):
        spec = SensorSpec(noise_sigma=0.0)
        z = np.random.default_rng(0).standard_normal(1)
        assert _soil(50.0, spec, z) == pytest.approx(50.0)

    @given(st.floats(0.0, 100.0))
    def test_noiseless_round_trip_any_moisture(self, true_pct):
        spec = SensorSpec(noise_sigma=0.0)
        z = np.random.default_rng(0).standard_normal(1)
        assert _soil(true_pct, spec, z) == pytest.approx(
            true_pct, abs=1e-9)

    def test_air_counts_anchor(self):
        spec = SensorSpec(noise_sigma=0.0)
        z = np.random.default_rng(0).standard_normal(1)
        assert _soil(0.0, spec, z) == 0.0

    def test_degenerate_calibration_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorSpec(air_counts=1200, water_counts=1200)

    @pytest.mark.parametrize("kwargs", [
        {"water_counts": -1.0}, {"water_counts": 3500.0},
        {"water_counts": 4000.0}, {"air_counts": math.nan},
        {"water_counts": math.nan}])
    def test_counts_outside_the_adc_range_rejected(self, kwargs):
        # no count is negative, and wetter soil reads fewer counts than the
        # 3500-count dry anchor
        with pytest.raises(ConfigurationError, match="water_counts"):
            SensorSpec(**kwargs)

    def test_full_scale_dry_anchor_accepted(self):
        assert SensorSpec(air_counts=4095.0).air_counts == 4095.0

    def test_non_dividing_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="dividing 86400"):
            SensorSpec(sample_interval_s=7)

    def test_whole_day_interval_accepted(self):
        assert SensorSpec(sample_interval_s=86_400).sample_interval_s == 86_400

    @settings(max_examples=300)
    @given(true_pct=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
           sigma=st.floats(0.0, 5000.0),
           air_counts=st.integers(1, 2**32 - 1),
           extra_bits=st.integers(0, 31), seed=st.integers(0, 2**32 - 1))
    def test_no_adc_range_would_change_a_reading(self, true_pct, sigma,
                                                  air_counts, extra_bits,
                                                  seed):
        # the reference clips the noisy counts to an ADC range that holds
        # air_counts, [0, 2**adc_bits - 1]: no such range changes a reading
        adc_bits = min(32, air_counts.bit_length() + extra_bits)
        spec = SensorSpec(air_counts=float(air_counts), water_counts=0.0,
                          noise_sigma=sigma)
        true_pct = np.array(true_pct)
        z = np.random.default_rng(seed).standard_normal(true_pct.size)
        raw = np.clip(soil_raw_counts(true_pct, spec) + sigma * z,
                      0.0, 2 ** adc_bits - 1)
        clipped = np.clip(100.0 * (spec.air_counts - raw)
                          / (spec.air_counts - spec.water_counts), 0.0, 100.0)
        assert sample_soil_sensor(true_pct, spec, z).tobytes() == \
            clipped.tobytes()

    def test_noise_is_unbiased(self):
        # Monte-Carlo: symmetric noise without clamping keeps the mean
        spec = SensorSpec(noise_sigma=40.0)
        z = np.random.default_rng(11).standard_normal(10_000)
        values = sample_soil_sensor(np.full(10_000, 40.0), spec, z)
        assert abs(np.mean(values) - 40.0) < 0.5

    def test_identical_seed_identical_stream(self):
        spec = SensorSpec(noise_sigma=25.0)
        a = [_soil(40.0, spec, np.random.default_rng(5).standard_normal(1))]
        b = [_soil(40.0, spec, np.random.default_rng(5).standard_normal(1))]
        assert a == b


class TestAirSensor:
    def test_values_pass_through_noiselessly(self):
        assert _air(32.6, 38.0, 0.0, np.random.default_rng(0)) == (32.6, 38.0)

    def test_humidity_clamped_at_100(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            _, rh = _air(25.0, 100.0, 5.0, rng)
            assert rh <= 100.0

    def test_quantization_to_tenths(self):
        t, _ = _air(20.24, 50.0, 0.0, np.random.default_rng(0))
        assert t == 20.2


def _python_round_bytes(values) -> bytes:
    return np.array([round(v, 1) for v in values], dtype=np.float64).tobytes()


def _ulps_away(value: float, n: int) -> float:
    for _ in range(abs(n)):
        value = np.nextafter(value, math.copysign(math.inf, n))
    return float(value)


# halfway points (k + 0.5) / 10 of the clipped reading range [-40, 100]
HALVES = (np.arange(-400, 1000) + 0.5) / 10


class TestRoundTenths:
    """The vectorized rounding must equal Python's ``round(v, 1)`` bit for
    bit (sign of zero included): the air readings feed the manifests."""

    def test_every_halfway_point_and_its_neighbours(self):
        values = np.concatenate([
            HALVES, np.nextafter(HALVES, -np.inf), np.nextafter(HALVES, np.inf),
            [0.0, -0.0, -0.04, -0.05, -0.06, 0.05, -1e-300, 5e-324, -40.0,
             100.0]])
        assert _round_tenths(values).tobytes() == \
            _python_round_bytes(values.tolist())

    def test_season_grid_rounds_each_element(self):
        # a (days, slots) grid whose near-halfway values sit in later rows
        values = np.random.default_rng(3).uniform(-40.0, 100.0, (60, 288))
        flat = [45, 288, 5_000, 17_279]
        values.flat[flat] = HALVES[[3, 500, 901, 1_399]]
        rounded = _round_tenths(values)
        assert rounded.shape == values.shape
        assert rounded.tobytes() == _python_round_bytes(values.ravel().tolist())

    @given(st.lists(
        st.floats(-40.0, 100.0)
        | st.builds(_ulps_away, st.sampled_from(HALVES.tolist()),
                    st.integers(-4, 4))
        | st.sampled_from([0.0, -0.0, -0.04, -1e-9, 1e-9]),
        min_size=1, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_matches_python_round_bit_for_bit(self, values):
        assert _round_tenths(np.array(values)).tobytes() == \
            _python_round_bytes(values)

