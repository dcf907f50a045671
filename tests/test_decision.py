"""Decision engine: ET kernels against independent oracles, threshold rules,
and season scheduling."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrisim import decision
from agrisim.decision import (
    ALERT_KINDS,
    CALENDAR_BASELINE,
    HEAT,
    HUMIDITY_HIGH,
    HUMIDITY_LOW,
    MOISTURE_LOW,
    SENSOR_DRIVEN,
    Alerts,
    CropCalendar,
    DailyRecord,
    IrrigationEvent,
    Samples,
    SeasonResult,
    Thresholds,
    _diurnal_cosines,
    _refill_depth,
    crop_et,
    et0_hargreaves,
    evaluate,
    extraterrestrial_radiation,
    schedule_season,
    season_drivers,
)
from agrisim.errors import InputError
from agrisim.fieldsim import (
    SECONDS_PER_DAY,
    SeasonConfig,
    SensorSpec,
    SoilProfile,
    depletion_to_moisture_pct,
    generate_weather,
    moisture_pct_to_depletion,
    sample_air_sensor,
    sample_soil_sensor,
    step_soil_water,
)
from agrisim.scenario import (
    BaselinePolicyParams,
    IrrigationPolicyParams,
    load_default_scenario,
)

PROFILE = SoilProfile()
SAMPLE_COLUMNS = ("timestamp_s", "moisture_pct", "temp_c", "humidity_pct")
ALERT_COLUMNS = ("kind", "observed", "threshold", "timestamp_s")


def oracle_ra(lat_deg, doy):
    """Independent implementation of daily extraterrestrial radiation,
    written against the standard solar-geometry equations in a different
    style (degree-based, expanded terms)."""
    lat = lat_deg * np.pi / 180.0
    b = 2.0 * np.pi / 365.0 * doy
    inv_dist = 1.0 + 0.033 * np.cos(b)
    delta = 0.409 * np.sin(b - 1.39)
    omega = np.arccos(np.clip(-np.tan(lat) * np.tan(delta), -1.0, 1.0))
    gsc_daily = 24.0 * 60.0 * 0.0820 / np.pi
    term = (omega * np.sin(lat) * np.sin(delta)
            + np.cos(lat) * np.cos(delta) * np.sin(omega))
    return gsc_daily * inv_dist * term


def oracle_et0(t_min, t_max, lat_deg, doy):
    ra_mm = 0.408 * oracle_ra(lat_deg, doy)
    return max(0.0023 * ra_mm * ((t_min + t_max) / 2.0 + 17.8)
               * math.sqrt(t_max - t_min), 0.0)


class TestExtraterrestrialRadiation:
    def test_positive_at_equator_all_year(self):
        for doy in range(1, 366):
            assert extraterrestrial_radiation(0.0, doy) > 0.0

    def test_matches_independent_oracle_on_grid(self):
        rng = np.random.default_rng(0)
        lats = rng.uniform(-66.0, 66.0, 1000)
        doys = rng.integers(1, 366, 1000)
        for lat, doy in zip(lats, doys):
            assert extraterrestrial_radiation(float(lat), int(doy)) == \
                pytest.approx(oracle_ra(float(lat), int(doy)), abs=1e-9)

    def test_equinox_beats_solstice_near_equator(self):
        lat = 0.4
        equinox = max(extraterrestrial_radiation(lat, 80),
                      extraterrestrial_radiation(lat, 266))
        for solstice in (172, 355):
            assert equinox >= extraterrestrial_radiation(lat, solstice)

    def test_fao56_example_8(self):
        """FAO-56 Example 8: Ra on 3 September (day 246) at 20 degrees S is
        32.2 MJ m-2 day-1, given to one decimal."""
        assert extraterrestrial_radiation(-20.0, 246) == pytest.approx(
            32.2, abs=0.05)

    def test_polar_latitudes_rejected(self):
        with pytest.raises(InputError):
            extraterrestrial_radiation(70.0, 100)
        with pytest.raises(InputError):
            extraterrestrial_radiation(0.0, 0)


class TestHargreaves:
    def test_zero_diurnal_range_gives_zero(self):
        assert et0_hargreaves(20.0, 20.0, 0.4, 100) == 0.0

    def test_offset_zero_point(self):
        assert et0_hargreaves(-17.8, -17.8, 0.4, 100) == 0.0

    def test_matches_independent_evaluation(self):
        assert et0_hargreaves(18.0, 30.0, 0.4, 200) == pytest.approx(
            oracle_et0(18.0, 30.0, 0.4, 200), abs=1e-9)

    def test_grid_against_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            lat = float(rng.uniform(-60, 60))
            doy = int(rng.integers(1, 366))
            t_min = float(rng.uniform(-5, 30))
            t_max = t_min + float(rng.uniform(0, 20))
            assert et0_hargreaves(t_min, t_max, lat, doy) == pytest.approx(
                oracle_et0(t_min, t_max, lat, doy), abs=1e-9)

    def test_reversed_temperatures_rejected(self):
        with pytest.raises(InputError):
            et0_hargreaves(25.0, 20.0, 0.4, 100)

    @given(st.floats(-10, 35), st.floats(0, 25), st.floats(-60, 60),
           st.integers(1, 365))
    @settings(deadline=None)
    def test_never_negative(self, t_min, span, lat, doy):
        assert et0_hargreaves(t_min, t_min + span, lat, doy) >= 0.0


class TestCropCalendar:
    def test_identity_coefficient_stage(self):
        cal = CropCalendar(10, 10, 10, 10, kc_initial=1.0, kc_mid=1.0,
                           kc_end=1.0)
        assert crop_et(4.2, 5, cal) == pytest.approx(4.2)

    def test_mid_season_default_arithmetic(self):
        cal = CropCalendar.maize(120)
        mid_day = cal.initial_days + cal.development_days + 1
        assert crop_et(5.0, mid_day, cal) == pytest.approx(6.0)

    def test_stage_lengths_sum_to_season(self):
        for days in (30, 60, 90, 120, 200):
            assert CropCalendar.maize(days).season_total_days == days

    def test_out_of_season_day_rejected(self):
        cal = CropCalendar.maize(60)
        with pytest.raises(InputError):
            crop_et(5.0, 60, cal)
        with pytest.raises(InputError):
            crop_et(5.0, -1, cal)

    def test_kc_continuity_no_jumps(self):
        cal = CropCalendar.maize(60)
        kcs = [cal.kc_for_day(d) for d in range(60)]
        max_slope = max(
            abs(cal.kc_mid - cal.kc_initial) / (cal.development_days + 1),
            abs(cal.kc_end - cal.kc_mid) / (cal.late_days + 1))
        for a, b in zip(kcs, kcs[1:]):
            assert abs(b - a) <= max_slope + 1e-12


def _rules(m=40.0, t=28.0, rh=45.0, dep=30.0, thresholds=Thresholds(),
           cap_mm=25.0):
    """The kinds that fire on one reading, in ALERT_KINDS order, and the
    irrigation depth."""
    moisture = np.array([m])
    fired = evaluate(moisture, np.array([t]), np.array([rh]), thresholds)
    depth = _refill_depth(moisture, np.array([dep]), thresholds, cap_mm)
    assert fired.shape == (1, len(ALERT_KINDS)) and depth.shape == (1,)
    kinds = [k for k, f in zip(ALERT_KINDS, fired[0].tolist()) if f]
    return kinds, depth[0].item()


class TestEvaluate:
    def test_low_moisture_triggers_irrigation(self):
        kinds, depth = _rules(m=22.0, dep=30.0)
        assert kinds == [MOISTURE_LOW]
        assert depth > 0

    def test_heat_alert(self):
        assert _rules(t=37.0) == ([HEAT], 0.0)
        assert _rules(t=35.0) == ([], 0.0)

    def test_all_within_thresholds(self):
        assert _rules() == ([], 0.0)

    def test_trigger_is_strict(self):
        assert _rules(m=25.0, dep=30.0) == ([], 0.0)

    def test_humidity_band_alerts(self):
        assert _rules(rh=20.0)[0] == [HUMIDITY_LOW]
        assert _rules(rh=70.0)[0] == [HUMIDITY_HIGH]
        assert _rules(rh=30.0)[0] == _rules(rh=60.0)[0] == []

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 45),
           st.floats(0, 100))
    @settings(max_examples=1000, deadline=None)
    def test_monotone_in_moisture(self, m, m_higher, t, rh):
        if m_higher < m:
            m, m_higher = m_higher, m
        if _rules(m=m, t=t, rh=rh)[1] == 0.0:
            assert _rules(m=m_higher, t=t, rh=rh)[1] == 0.0

    @given(st.floats(0, 100), st.floats(0, 45), st.floats(0, 100))
    @settings(max_examples=500, deadline=None)
    def test_alerts_regenerate_from_thresholds(self, m, t, rh):
        thresholds = Thresholds()
        kinds, _ = _rules(m=m, t=t, rh=rh, dep=10.0, thresholds=thresholds)
        expected = set()
        if t > thresholds.temp_alert_c:
            expected.add(HEAT)
        if rh < thresholds.humidity_range_pct[0]:
            expected.add(HUMIDITY_LOW)
        elif rh > thresholds.humidity_range_pct[1]:
            expected.add(HUMIDITY_HIGH)
        if m < thresholds.soil_moisture_trigger_pct:
            expected.add(MOISTURE_LOW)
        assert set(kinds) == expected

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 45),
                              st.floats(0, 100), st.floats(0, 60)),
                    min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_columns_match_one_reading_at_a_time(self, rows):
        moisture, temp, rh, dep = (np.array(c) for c in zip(*rows))
        fired = evaluate(moisture, temp, rh, Thresholds())
        depth = _refill_depth(moisture, dep, Thresholds(), 25.0)
        assert [([k for k, f in zip(ALERT_KINDS, r) if f], d) for r, d in
                zip(fired.tolist(), depth.tolist())] == [
            _rules(*row) for row in rows]


class TestRefillDepth:
    # a dry reading irrigates the sensed depletion, capped at cap_mm
    def _depth(self, depletion_mm):
        return _rules(m=20.0, dep=depletion_mm, cap_mm=25.0)[1]

    def test_zero_depletion(self):
        assert self._depth(0.0) == 0.0

    def test_capped(self):
        assert self._depth(30.0) == 25.0

    def test_below_cap(self):
        assert self._depth(10.0) == 10.0


SHIPPED = load_default_scenario()


def _setup(**overrides):
    """The shipped scenario with the loam profile, a 4-day 12 mm calendar
    arm and every field the assertions below rely on set explicitly."""
    kwargs = dict(
        seed=42,
        season=SeasonConfig(days=60, latitude_deg=0.4),
        profile=PROFILE,
        calendar=CropCalendar.maize(60),
        thresholds=Thresholds(),
        soil_sensor=SensorSpec(noise_sigma=10.0),
        air_noise_sigma=0.2,
        irrigation=IrrigationPolicyParams(cap_mm=25.0),
        baseline=BaselinePolicyParams(interval_days=4, depth_mm=12.0),
    )
    kwargs.update(overrides)
    return dataclasses.replace(SHIPPED, **kwargs)


def _drivers(scenario, noise_seed):
    """The scenario's shared season inputs on the noise of ``noise_seed``."""
    return season_drivers(scenario,
                          generate_weather(scenario.season, scenario.seed),
                          noise_seed)


def _arm(policy, scenario, noise_seed):
    """One policy arm on its own season inputs."""
    return schedule_season(policy, scenario, _drivers(scenario, noise_seed))


class TestScheduleSeason:
    def test_baseline_event_arithmetic(self):
        result = _arm(CALENDAR_BASELINE, _setup(), 0)
        assert result.event_count == 15
        assert result.irrigation_total_mm == pytest.approx(180.0)

    def test_zero_trigger_never_fires(self):
        setup = _setup(thresholds=Thresholds(soil_moisture_trigger_pct=0.0))
        result = _arm(SENSOR_DRIVEN, setup, 0)
        assert result.event_count == 0
        assert result.irrigation_total_mm == 0.0

    def test_sensor_events_audit_against_readings(self):
        # each event's reason prints the day's first reading below the
        # trigger: the reading the irrigation was decided on
        result = _arm(SENSOR_DRIVEN, _setup(), 0)
        trigger = Thresholds().soil_moisture_trigger_pct
        by_day = result.samples.moisture_pct.reshape(len(result.daily), -1)
        assert result.event_count > 0
        for event in result.events:
            readings = by_day[event.day_index]
            m = readings[readings < trigger][0]
            assert event.reason == \
                f"soil moisture {m:.1f}% below trigger {trigger:.0f}%"

    def test_at_most_one_event_per_day(self):
        result = _arm(SENSOR_DRIVEN, _setup(), 0)
        days = [e.day_index for e in result.events]
        assert len(days) == len(set(days))

    def test_eta_never_exceeds_etm(self):
        for policy in (SENSOR_DRIVEN, CALENDAR_BASELINE):
            result = _arm(policy, _setup(), 0)
            assert 0.0 <= result.eta_total_mm <= result.etm_total_mm + 1e-9

    def test_sample_count(self):
        # the calendar farmer has no sensor
        assert len(_arm(CALENDAR_BASELINE, _setup(), 0).samples) == 0
        assert len(_arm(SENSOR_DRIVEN, _setup(), 0).samples) == 60 * 288

    def test_unknown_policy_rejected(self):
        with pytest.raises(InputError):
            _arm("GREEDY", _setup(), 0)

    def test_deterministic_per_noise_seed(self):
        a = _arm(SENSOR_DRIVEN, _setup(), 4)
        b = _arm(SENSOR_DRIVEN, _setup(), 4)
        for column in SAMPLE_COLUMNS:
            x, y = getattr(a.samples, column), getattr(b.samples, column)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert a.events == b.events
        assert a.noise_digest == b.noise_digest

    def test_alerts_and_events_match_rules_on_every_sample(self):
        # oracle: the threshold rules applied to each sample in turn; tight
        # thresholds and noisy air readings fire every alert kind
        setup = _setup(
            thresholds=Thresholds(temp_alert_c=26.0,
                                  humidity_range_pct=(42.0, 50.0)),
            air_noise_sigma=3.0)
        result = _arm(SENSOR_DRIVEN, setup, 7)
        thr, cap = setup.thresholds, setup.irrigation.cap_mm
        rh_lo, rh_hi = thr.humidity_range_pct
        trigger = thr.soil_moisture_trigger_pct
        alerts, events = [], {}
        samples = result.samples
        assert samples.timestamp_s.dtype == np.int64
        for ts, m, t, rh in zip(*(getattr(samples, column).tolist()
                                  for column in SAMPLE_COLUMNS)):
            for kind, observed, limit, crossed in (
                    (HEAT, t, thr.temp_alert_c, t > thr.temp_alert_c),
                    (HUMIDITY_LOW, rh, rh_lo, rh < rh_lo),
                    (HUMIDITY_HIGH, rh, rh_hi, rh > rh_hi),
                    (MOISTURE_LOW, m, trigger, m < trigger)):
                if crossed:
                    alerts.append((kind, observed, limit, ts))
            dep = min(max(moisture_pct_to_depletion(m, PROFILE), 0.0),
                      PROFILE.taw_mm)
            if m < trigger and min(dep, cap) > 0.0:
                events.setdefault((ts - 1) // 86_400, (
                    min(dep, cap),
                    f"soil moisture {m:.1f}% below trigger {trigger:.0f}%"))
        assert {kind for kind, *_ in alerts} == set(ALERT_KINDS)
        got = result.alerts
        assert list(zip([ALERT_KINDS[k] for k in got.kind.tolist()],
                        got.observed.tolist(), got.threshold.tolist(),
                        got.timestamp_s.tolist())) == alerts
        assert got.observed.dtype == got.threshold.dtype == np.float64
        assert got.timestamp_s.dtype == np.int64
        assert {e.day_index: (e.depth_mm, e.reason)
                for e in result.events} == events
        for e in result.events:
            assert type(e.depth_mm) is float


def _per_day_schedule_season(policy, scenario, noise_seed):
    """Reference season kernel: one day at a time, each day's noise, sensor
    readings and threshold rules computed as that day's own arrays, and the
    noise digest hashed a day at a time. The calendar arm draws each day's
    noise but reads no sensor, so it has no readings and no alerts. The
    batched ``schedule_season`` must match it bit for bit."""
    rng, noise = np.random.default_rng(noise_seed), hashlib.sha256()
    events, daily = [], []
    # zero-row seeds: an arm without readings keeps the kernel's dtypes
    columns = [(np.empty(0, np.int64), *np.empty((3, 0)))]
    fired_days = [np.zeros((0, len(ALERT_KINDS)), dtype=bool)]
    eta_total = irrigation_total = etm_total = 0.0
    dep0 = scenario.irrigation.initial_depletion_mm
    interval = scenario.soil_sensor.sample_interval_s
    samples_per_day = SECONDS_PER_DAY // interval
    profile = scenario.profile
    taw = profile.taw_mm
    frac = np.arange(1, samples_per_day + 1) / samples_per_day
    cosines = _diurnal_cosines(interval, samples_per_day)
    slot_offsets = interval * np.arange(1, samples_per_day + 1,
                                        dtype=np.int64)
    thr = scenario.thresholds
    baseline = scenario.baseline
    latitude = scenario.season.latitude_deg

    for w in generate_weather(scenario.season, scenario.seed):
        et0 = et0_hargreaves(w.t_min_c, w.t_max_c, latitude, w.day_of_year)
        etc = crop_et(et0, w.day_index, scenario.calendar)

        irrigation_today = 0.0
        if policy == CALENDAR_BASELINE and \
                w.day_index % baseline.interval_days == 0:
            irrigation_today = baseline.depth_mm
            events.append(IrrigationEvent(w.day_index, baseline.depth_mm,
                                          "calendar interval"))

        z = rng.standard_normal(3 * samples_per_day)
        noise.update(z.tobytes())
        z = z.reshape(samples_per_day, 3)
        if policy == SENSOR_DRIVEN:
            dep1, _, _ = step_soil_water(dep0, w, 0.0, etc, profile)
            true_dep = dep0 + frac * (dep1 - dep0)
            true_moist = depletion_to_moisture_pct(np.minimum(true_dep, taw),
                                                   profile)
            moisture = sample_soil_sensor(true_moist, scenario.soil_sensor,
                                          z[:, 0])
            half_range = (w.t_max_c - w.t_min_c) / 2.0
            t_mean = (w.t_min_c + w.t_max_c) / 2.0
            temp, rh = sample_air_sensor(
                t_mean + half_range * cosines, w.rh_mean_pct,
                scenario.air_noise_sigma, z[:, 1], z[:, 2])
            timestamps = w.day_index * SECONDS_PER_DAY + slot_offsets
            columns.append((timestamps, moisture, temp, rh))
            sensed_dep = np.clip(moisture_pct_to_depletion(moisture, profile),
                                 0.0, taw)
            fired = evaluate(moisture, temp, rh, thr)
            depth = _refill_depth(moisture, sensed_dep, thr,
                                  scenario.irrigation.cap_mm)
            fired_days.append(fired)
            wet = np.flatnonzero(depth > 0.0)
            if wet.size:
                k = wet[0]
                irrigation_today = depth[k].item()
                m = moisture[k].item()
                events.append(IrrigationEvent(
                    w.day_index, irrigation_today,
                    f"soil moisture {m:.1f}% below trigger "
                    f"{thr.soil_moisture_trigger_pct:.0f}%"))

        dep_end, eta, drainage = step_soil_water(dep0, w, irrigation_today,
                                                 etc, profile)
        daily.append(DailyRecord(
            day_index=w.day_index, depletion_start_mm=dep0,
            depletion_end_mm=dep_end, eta_mm=eta, drainage_mm=drainage,
            irrigation_mm=irrigation_today))
        eta_total += eta
        irrigation_total += irrigation_today
        etm_total += etc
        dep0 = dep_end

    timestamps, moisture, temp, rh = (np.concatenate(c)
                                      for c in zip(*columns))
    rows, kinds = np.nonzero(np.concatenate(fired_days))
    limits = np.array((thr.temp_alert_c, *thr.humidity_range_pct,
                       thr.soil_moisture_trigger_pct))
    alerts = Alerts(kind=kinds,
                    observed=np.array((temp, rh, rh, moisture))[kinds, rows],
                    threshold=limits[kinds], timestamp_s=timestamps[rows])
    return SeasonResult(
        policy=policy, events=events, daily=daily,
        samples=Samples(timestamp_s=timestamps, moisture_pct=moisture,
                        temp_c=temp, humidity_pct=rh),
        alerts=alerts, irrigation_total_mm=irrigation_total,
        eta_total_mm=eta_total, etm_total_mm=etm_total,
        noise_digest=noise.hexdigest())


ORACLE_SEASONS = {
    "dry": SeasonConfig(days=60, latitude_deg=0.4),
    "wet": SeasonConfig(days=60, latitude_deg=0.4, dry_season=False,
                        rain_probability=0.3, rain_mean_mm=8.0),
}


@pytest.mark.parametrize("trigger_pct", [25.0, 0.0])
@pytest.mark.parametrize("interval_s", [300, 3600])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("season", sorted(ORACLE_SEASONS))
def test_batched_kernel_matches_per_day_reference(season, seed, interval_s,
                                                   trigger_pct):
    setup = _setup(
        seed=seed, season=ORACLE_SEASONS[season],
        thresholds=Thresholds(soil_moisture_trigger_pct=trigger_pct),
        soil_sensor=SensorSpec(noise_sigma=10.0, sample_interval_s=interval_s),
        air_noise_sigma=1.5)
    if season == "wet":
        assert any(w.rain_mm > 0.0
                   for w in generate_weather(setup.season, seed))
    # both arms read one set of inputs, as in a run; each oracle draws its
    # own weather and noise
    drivers = _drivers(setup, seed)
    for policy in (SENSOR_DRIVEN, CALENDAR_BASELINE):
        assert_same_season(
            schedule_season(policy, setup, drivers),
            _per_day_schedule_season(policy, setup, seed))


@pytest.mark.parametrize("seed", [0, 42])
def test_shared_drivers_match_per_day_reference_in_either_order(seed):
    # the first arm leaves the shared inputs as the second arm needs them
    scenario = dataclasses.replace(SHIPPED, seed=seed)
    for order in ((SENSOR_DRIVEN, CALENDAR_BASELINE),
                  (CALENDAR_BASELINE, SENSOR_DRIVEN)):
        drivers = _drivers(scenario, seed)
        for policy in order:
            assert_same_season(
                schedule_season(policy, scenario, drivers),
                _per_day_schedule_season(policy, scenario, seed))


def assert_same_season(got, want):
    # repr shows every float bit for bit, sign of zero and NaN included
    assert repr(got.events) == repr(want.events)
    assert repr(got.daily) == repr(want.daily)
    for part, columns in (("samples", SAMPLE_COLUMNS),
                          ("alerts", ALERT_COLUMNS)):
        for column in columns:
            x, y = (getattr(getattr(arm, part), column) for arm in (got, want))
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    for total in ("irrigation_total_mm", "eta_total_mm", "etm_total_mm"):
        assert getattr(got, total).hex() == getattr(want, total).hex()
    assert got.noise_digest == want.noise_digest


def sensor_arm_batches(monkeypatch, scenario):
    """The sensor arm of ``scenario`` and the number of readings in each
    soil-reading batch it made."""
    readings = []

    def counted(true_moisture_pct, spec, noise_z):
        readings.append(true_moisture_pct.size)
        return sample_soil_sensor(true_moisture_pct, spec, noise_z)

    with monkeypatch.context() as patch:
        patch.setattr(decision, "sample_soil_sensor", counted)
        result = _arm(SENSOR_DRIVEN, scenario, scenario.seed)
    return result, readings


def test_calendar_arm_reads_no_sensor(monkeypatch):
    # the calendar farmer has no sensor: no soil reading, no moisture map,
    # so no readings and no alerts
    calls = {}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    drivers = _drivers(SHIPPED, 42)
    for name in ("sample_soil_sensor", "depletion_to_moisture_pct"):
        monkeypatch.setattr(decision, name,
                            counted(name, getattr(decision, name)))
    result = schedule_season(CALENDAR_BASELINE, SHIPPED, drivers)
    assert calls == {}
    assert len(result.samples) == len(result.alerts) == 0
    assert result.event_count > 0 and len(result.daily) == SHIPPED.season.days
    # the counters see the sensor arm's reads
    schedule_season(SENSOR_DRIVEN, SHIPPED, drivers)
    assert set(calls) == {"sample_soil_sensor", "depletion_to_moisture_pct"}


def _frequent(scenario):
    """A 2 mm cap and a 40% trigger: an irrigation nearly every day."""
    return dataclasses.replace(
        scenario, irrigation=dataclasses.replace(scenario.irrigation,
                                                 cap_mm=2.0),
        thresholds=dataclasses.replace(scenario.thresholds,
                                       soil_moisture_trigger_pct=40.0))


def _doubles(result, batches):
    """Whether a window without a trigger was followed by another window.
    Without that, each dry-down takes one batch and the days after the last
    irrigation at most one."""
    tail = len(result.daily) - 1 - result.events[-1].day_index
    return len(batches) > result.event_count + (tail > 0)


# each branch of the sensor arm's stretch loop, on the shipped scenario
STRETCH_CASES = {
    "trigger-on-day-0": (
        lambda s: dataclasses.replace(s, irrigation=dataclasses.replace(
            s.irrigation, initial_depletion_mm=s.profile.taw_mm)),
        lambda result, batches: result.events[0].day_index == 0),
    "frequent-irrigation": (
        _frequent, lambda result, batches: result.event_count == 49),
    "trigger-on-last-day": (
        lambda s: dataclasses.replace(s, seed=43),
        lambda result, batches: result.events[-1].day_index
        == len(result.daily) - 1),
    "window-doubles": (lambda s: s, _doubles),
}


@pytest.mark.parametrize("case", sorted(STRETCH_CASES))
def test_stretch_loop_matches_per_day_reference(case, monkeypatch):
    variant, covers = STRETCH_CASES[case]
    scenario = variant(SHIPPED)
    result, batches = sensor_arm_batches(monkeypatch, scenario)
    assert covers(result, batches)
    drivers = _drivers(scenario, scenario.seed)
    for policy in (SENSOR_DRIVEN, CALENDAR_BASELINE):
        assert_same_season(
            schedule_season(policy, scenario, drivers),
            _per_day_schedule_season(policy, scenario, scenario.seed))


# the shipped scenario, the wet variant of the benchmark and a season that
# irrigates nearly every day
WORK_CASES = {
    "shipped": lambda s: s,
    "wet": lambda s: dataclasses.replace(s, season=dataclasses.replace(
        s.season, dry_season=False, rain_probability=0.3,
        rain_mean_mm=8.0)),
    "frequent-irrigation": _frequent,
}


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("case", sorted(WORK_CASES))
def test_sensor_arm_reads_soil_by_stretch(case, seed, monkeypatch):
    scenario = WORK_CASES[case](dataclasses.replace(SHIPPED, seed=seed))
    result, batches = sensor_arm_batches(monkeypatch, scenario)
    days = len(result.daily)
    # each batch makes at least one day final; these seasons read about
    # twice their readings, and no trigger pattern reaches 4 times
    assert len(batches) <= days
    assert sum(batches) <= 3 * len(result.samples)
    if case == "shipped" and seed == 42:
        # 7 irrigations; reading day by day took 60 batches
        assert result.event_count == 7
        assert len(batches) <= 12
