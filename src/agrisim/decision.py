"""Irrigation decision engine.

Implements the crop-water-requirement chain (extraterrestrial radiation ->
Hargreaves reference evapotranspiration -> staged crop coefficient -> crop
water use), the threshold rules that turn sensor readings into irrigation
advice and environmental alerts, and the season scheduler that runs either
the sensor-driven policy or a fixed-calendar baseline over a weather
trajectory.

Hargreaves is used for reference ET because the modeled sensor suite measures
only temperature and humidity; it needs nothing beyond daily temperature
extremes and latitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from agrisim.errors import ConfigurationError, InputError
from agrisim.fieldsim import (
    SECONDS_PER_DAY,
    NoiseStream,
    WeatherDay,
    depletion_to_moisture_pct,
    generate_weather,
    moisture_pct_to_depletion,
    sample_air_sensor,
    sample_soil_sensor,
    step_soil_water,
)

if TYPE_CHECKING:  # scenario imports this module
    from agrisim.scenario import Scenario

SOLAR_CONSTANT_MJ = 0.0820  # MJ m-2 min-1
RA_TO_MM = 0.408            # evaporation equivalent of 1 MJ m-2 day-1

SENSOR_DRIVEN = "SENSOR_DRIVEN"
CALENDAR_BASELINE = "CALENDAR_BASELINE"

HEAT = "HEAT"
HUMIDITY_LOW = "HUMIDITY_LOW"
HUMIDITY_HIGH = "HUMIDITY_HIGH"
MOISTURE_LOW = "MOISTURE_LOW"
ALERT_KINDS = (HEAT, HUMIDITY_LOW, HUMIDITY_HIGH, MOISTURE_LOW)


def extraterrestrial_radiation(latitude_deg: float, day_of_year: int) -> float:
    """Daily extraterrestrial radiation Ra in MJ m-2 day-1.

    Standard solar geometry: inverse relative earth-sun distance, solar
    declination, and sunset hour angle. Valid away from polar latitudes.
    """
    if not -66.0 <= latitude_deg <= 66.0:
        raise InputError(f"latitude outside [-66, 66]: {latitude_deg}")
    if not 1 <= day_of_year <= 365:
        raise InputError(f"day_of_year outside [1, 365]: {day_of_year}")
    phi = math.radians(latitude_deg)
    dr = 1.0 + 0.033 * math.cos(2.0 * math.pi * day_of_year / 365.0)
    decl = 0.409 * math.sin(2.0 * math.pi * day_of_year / 365.0 - 1.39)
    ws = math.acos(-math.tan(phi) * math.tan(decl))
    return (24.0 * 60.0 / math.pi) * SOLAR_CONSTANT_MJ * dr * (
        ws * math.sin(phi) * math.sin(decl)
        + math.cos(phi) * math.cos(decl) * math.sin(ws))


def et0_hargreaves(t_min_c: float, t_max_c: float, latitude_deg: float,
                   day_of_year: int) -> float:
    """Hargreaves reference evapotranspiration in mm/day, clamped at 0."""
    if t_min_c > t_max_c:
        raise InputError(f"t_min > t_max: {t_min_c} > {t_max_c}")
    ra_mm = RA_TO_MM * extraterrestrial_radiation(latitude_deg, day_of_year)
    t_mean = (t_min_c + t_max_c) / 2.0
    et0 = 0.0023 * ra_mm * (t_mean + 17.8) * math.sqrt(t_max_c - t_min_c)
    return max(et0, 0.0)


@dataclass(frozen=True)
class CropCalendar:
    """Growth-stage lengths and crop coefficients.

    Kc is constant in the initial and mid stages and linearly interpolated
    across the development and late stages.
    """

    initial_days: int
    development_days: int
    mid_days: int
    late_days: int
    kc_initial: float = 0.30
    kc_mid: float = 1.20
    kc_end: float = 0.35

    def __post_init__(self):
        for n in (self.initial_days, self.development_days, self.mid_days,
                  self.late_days):
            if n <= 0:
                raise ConfigurationError("stage lengths must be positive")
        for kc in (self.kc_initial, self.kc_mid, self.kc_end):
            if not 0.0 < kc < 2.0:
                raise ConfigurationError(f"kc outside (0, 2): {kc}")

    @property
    def season_total_days(self) -> int:
        return (self.initial_days + self.development_days + self.mid_days
                + self.late_days)

    @classmethod
    def maize(cls, season_days: int, kc_initial: float = 0.30,
              kc_mid: float = 1.20, kc_end: float = 0.35) -> "CropCalendar":
        """Standard maize stage proportions (20/35/40/25 of a 120-day crop)
        scaled to the scenario season length."""
        base = (20, 35, 40, 25)
        total = sum(base)
        lengths = [max(1, round(b * season_days / total)) for b in base]
        lengths[-1] += season_days - sum(lengths)
        if lengths[-1] < 1:
            raise ConfigurationError(f"season too short: {season_days} days")
        return cls(*lengths, kc_initial=kc_initial, kc_mid=kc_mid, kc_end=kc_end)

    def kc_for_day(self, day_index: int) -> float:
        """Kc for a 0-based day within the season."""
        if not 0 <= day_index < self.season_total_days:
            raise InputError(
                f"day {day_index} outside season of {self.season_total_days} days")
        d = day_index
        if d < self.initial_days:
            return self.kc_initial
        d -= self.initial_days
        if d < self.development_days:
            frac = (d + 1) / (self.development_days + 1)
            return self.kc_initial + frac * (self.kc_mid - self.kc_initial)
        d -= self.development_days
        if d < self.mid_days:
            return self.kc_mid
        d -= self.mid_days
        frac = (d + 1) / (self.late_days + 1)
        return self.kc_mid + frac * (self.kc_end - self.kc_mid)


def crop_et(et0_mm: float, day_index: int, calendar: CropCalendar) -> float:
    """Crop water use ETc = Kc(stage) * ET0, in mm/day."""
    return calendar.kc_for_day(day_index) * et0_mm


@dataclass(frozen=True)
class Thresholds:
    """Rule thresholds for advice and alerts.

    The moisture trigger is strict: readings exactly at the trigger do not
    fire ("below" is read literally).
    """

    soil_moisture_trigger_pct: float = 25.0
    temp_alert_c: float = 35.0
    humidity_range_pct: tuple[float, float] = (30.0, 60.0)

    def __post_init__(self):
        # 0 is allowed and disables the strict "below" rule entirely
        if not 0.0 <= self.soil_moisture_trigger_pct < 100.0:
            raise ConfigurationError("moisture trigger must be in [0, 100)")
        if self.humidity_range_pct[0] >= self.humidity_range_pct[1]:
            raise ConfigurationError(
                f"humidity range reversed: {self.humidity_range_pct}")


@dataclass(frozen=True)
class Alert:
    kind: str
    observed: float
    threshold: float
    timestamp_s: int = 0


def evaluate(moisture: np.ndarray, temp: np.ndarray, humidity: np.ndarray,
             sensed_depletion_mm: np.ndarray, thresholds: Thresholds,
             cap_mm: float) -> tuple[np.ndarray, np.ndarray]:
    """Apply the threshold rules to columns of readings.

    Returns ``fired``, a readings x 4 bool mask whose columns follow
    ``ALERT_KINDS``, and ``depth_mm``: the irrigation depth that refills the
    sensed depletion, capped at ``cap_mm``, where MOISTURE_LOW fires, and 0
    elsewhere.
    """
    rh_lo, rh_hi = thresholds.humidity_range_pct
    fired = np.array((temp > thresholds.temp_alert_c, humidity < rh_lo,
                      humidity > rh_hi,
                      moisture < thresholds.soil_moisture_trigger_pct)).T
    depth_mm = np.where(fired[:, 3], np.minimum(sensed_depletion_mm, cap_mm),
                        0.0)
    return fired, depth_mm


@dataclass(frozen=True)
class IrrigationEvent:
    day_index: int
    timestamp_s: float
    depth_mm: float
    observed_moisture_pct: float
    reason: str


@dataclass(frozen=True)
class DailyRecord:
    day_index: int
    depletion_start_mm: float
    depletion_end_mm: float
    eta_mm: float
    drainage_mm: float
    irrigation_mm: float
    moisture_end_pct: float


@dataclass(frozen=True)
class Samples:
    """One arm's sensor readings as columns, one row per sampling slot."""

    timestamp_s: np.ndarray   # int64
    moisture_pct: np.ndarray  # float64, as are the other readings
    temp_c: np.ndarray
    humidity_pct: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp_s)


@dataclass
class SeasonResult:
    """Outcome of one policy arm over one season."""

    policy: str
    events: list[IrrigationEvent]
    daily: list[DailyRecord]
    samples: Samples
    alerts: list[Alert]
    irrigation_total_mm: float
    eta_total_mm: float
    etm_total_mm: float
    noise_digest: str

    @property
    def event_count(self) -> int:
        return len(self.events)


def _diurnal_cosines(interval_s: int, samples_per_day: int) -> np.ndarray:
    """cos(2 pi (hour - 14) / 24) at each sampling slot of a day, so the
    diurnal cycle peaks at 14:00. math.cos, not np.cos: the two can differ
    in the last bit, and the readings would change."""
    hours = [(k * interval_s % SECONDS_PER_DAY) / 3600.0
             for k in range(1, samples_per_day + 1)]
    return np.array([math.cos(2.0 * math.pi * (h - 14.0) / 24.0)
                     for h in hours])


def _diurnal_temp(w: WeatherDay, cosines: np.ndarray) -> np.ndarray:
    """Sinusoidal diurnal cycle between the day's extremes."""
    half_range = (w.t_max_c - w.t_min_c) / 2.0
    return w.t_mean_c + half_range * cosines


def schedule_season(policy: str, scenario: Scenario,
                    noise: NoiseStream) -> SeasonResult:
    """Run one policy arm over the scenario's season.

    The weather is generated from the scenario's season and seed, so every
    arm of one scenario sees the same weather.

    SENSOR_DRIVEN applies the threshold rules to every sampling step's
    noisy sensor readings (ground truth interpolated between daily states)
    and applies at most one irrigation event per calendar day: the first
    reading with a positive depth, sized from the sensed depletion up to the
    per-event cap. CALENDAR_BASELINE irrigates a fixed depth on a fixed day
    interval regardless of state.

    The soil balance itself advances daily; irrigation decided mid-day is
    applied within that day's step. Within a day the ground truth is the
    no-irrigation projection, so no reading depends on that day's decision:
    a whole day of readings is computed as arrays, and ``evaluate`` applies
    the rules to them in one call. No alert feeds back into the soil state,
    so the alerts are built once, from the season's joined ``fired`` masks.
    """
    if policy not in (SENSOR_DRIVEN, CALENDAR_BASELINE):
        raise InputError(f"unknown policy: {policy}")

    events: list[IrrigationEvent] = []
    daily: list[DailyRecord] = []
    columns = []  # (timestamps, moisture, temp, rh) per day, joined once
    fired_days = []  # the sensor arm's evaluate masks, joined once
    # each total starts at 0.0 and adds the day's value in day order
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

        # no-irrigation projection used to interpolate within-day ground truth
        dep1, _, _ = step_soil_water(dep0, w, 0.0, etc, profile)

        irrigation_today = 0.0
        if policy == CALENDAR_BASELINE and w.day_index % baseline.interval_days == 0:
            irrigation_today = baseline.depth_mm
            events.append(IrrigationEvent(
                w.day_index, w.day_index * SECONDS_PER_DAY,
                baseline.depth_mm, float("nan"), "calendar interval"))

        # one standard normal per reading, in (soil, temp, rh) order per slot
        z = noise.draw(3 * samples_per_day).reshape(samples_per_day, 3)
        true_dep = dep0 + frac * (dep1 - dep0)
        true_moist = depletion_to_moisture_pct(np.minimum(true_dep, taw),
                                               profile)
        moisture = sample_soil_sensor(true_moist, scenario.soil_sensor,
                                      z[:, 0])
        temp, rh = sample_air_sensor(_diurnal_temp(w, cosines),
                                     w.rh_mean_pct, scenario.air_noise_sigma,
                                     z[:, 1], z[:, 2])
        timestamps = w.day_index * SECONDS_PER_DAY + slot_offsets
        columns.append((timestamps, moisture, temp, rh))

        if policy == SENSOR_DRIVEN:
            sensed_dep = np.clip(moisture_pct_to_depletion(moisture, profile),
                                 0.0, taw)
            fired, depth = evaluate(moisture, temp, rh, sensed_dep, thr,
                                    scenario.irrigation.cap_mm)
            fired_days.append(fired)
            wet = np.flatnonzero(depth > 0.0)
            if wet.size:
                k = wet[0]
                irrigation_today = depth[k].item()
                m = moisture[k].item()
                events.append(IrrigationEvent(
                    w.day_index, timestamps[k].item(), irrigation_today, m,
                    f"soil moisture {m:.1f}% below trigger "
                    f"{thr.soil_moisture_trigger_pct:.0f}%"))

        dep_end, eta, drainage = step_soil_water(dep0, w, irrigation_today,
                                                 etc, profile)
        daily.append(DailyRecord(
            day_index=w.day_index, depletion_start_mm=dep0,
            depletion_end_mm=dep_end, eta_mm=eta, drainage_mm=drainage,
            irrigation_mm=irrigation_today,
            moisture_end_pct=float(depletion_to_moisture_pct(dep_end,
                                                             profile))))
        eta_total += eta
        irrigation_total += irrigation_today
        etm_total += etc
        dep0 = dep_end

    timestamps, moisture, temp, rh = (np.concatenate(c)
                                      for c in zip(*columns))
    alerts: list[Alert] = []
    if fired_days:
        # row-major: readings in time order, each in ALERT_KINDS order
        rows, kinds = np.nonzero(np.concatenate(fired_days))
        observed = np.array((temp, rh, rh, moisture))[kinds, rows]
        limits = (thr.temp_alert_c, *thr.humidity_range_pct,
                  thr.soil_moisture_trigger_pct)
        alerts = [Alert(ALERT_KINDS[k], obs, limits[k], ts)
                  for k, obs, ts in zip(kinds.tolist(), observed.tolist(),
                                        timestamps[rows].tolist())]
    samples = Samples(timestamp_s=timestamps, moisture_pct=moisture,
                      temp_c=temp, humidity_pct=rh)
    return SeasonResult(
        policy=policy, events=events, daily=daily, samples=samples,
        alerts=alerts, irrigation_total_mm=irrigation_total,
        eta_total_mm=eta_total, etm_total_mm=etm_total,
        noise_digest=noise.digest())
