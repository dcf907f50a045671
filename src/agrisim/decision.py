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

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from agrisim.errors import ConfigurationError, InputError
from agrisim.fieldsim import (
    SECONDS_PER_DAY,
    WeatherDay,
    depletion_to_moisture_pct,
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
    def maize(cls, season_days: int, **kc: float) -> "CropCalendar":
        """Standard maize stage proportions (20/35/40/25 of a 120-day crop)
        scaled to the season length; ``kc`` sets the ``kc_*`` fields."""
        base = (20, 35, 40, 25)
        total = sum(base)
        lengths = [max(1, round(b * season_days / total)) for b in base]
        lengths[-1] += season_days - sum(lengths)
        if lengths[-1] < 1:
            raise ConfigurationError(f"season too short: {season_days} days")
        return cls(*lengths, **kc)

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
        if math.isnan(self.temp_alert_c):  # it would fire no heat alert
            raise ConfigurationError("temp_alert_c must not be NaN")
        if not self.humidity_range_pct[0] < self.humidity_range_pct[1]:
            raise ConfigurationError(
                f"humidity range reversed: {self.humidity_range_pct}")


def evaluate(moisture: np.ndarray, temp: np.ndarray, humidity: np.ndarray,
             thresholds: Thresholds) -> np.ndarray:
    """Apply the threshold rules to columns of readings: a readings x 4
    bool mask whose columns follow ``ALERT_KINDS``."""
    rh_lo, rh_hi = thresholds.humidity_range_pct
    return np.array((temp > thresholds.temp_alert_c, humidity < rh_lo,
                     humidity > rh_hi,
                     moisture < thresholds.soil_moisture_trigger_pct)).T


def _refill_depth(moisture: np.ndarray, sensed_depletion_mm: np.ndarray,
                  thresholds: Thresholds, cap_mm: float) -> np.ndarray:
    """The MOISTURE_LOW rule's irrigation depth per reading: the sensed
    depletion capped at ``cap_mm`` below the trigger, 0 elsewhere."""
    return np.where(moisture < thresholds.soil_moisture_trigger_pct,
                    np.minimum(sensed_depletion_mm, cap_mm), 0.0)


@dataclass(frozen=True)
class IrrigationEvent:
    day_index: int
    depth_mm: float
    reason: str


@dataclass(frozen=True)
class DailyRecord:
    day_index: int
    depletion_start_mm: float
    depletion_end_mm: float
    eta_mm: float
    drainage_mm: float
    irrigation_mm: float


@dataclass(frozen=True)
class Samples:
    """One arm's sensor readings as columns, one row per sampling slot."""

    timestamp_s: np.ndarray   # int64
    moisture_pct: np.ndarray  # float64, as are the other readings
    temp_c: np.ndarray
    humidity_pct: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp_s)


@dataclass(frozen=True)
class Alerts:
    """Alerts as columns, one row per (reading, kind) that crossed its
    threshold, in time order."""

    kind: np.ndarray         # index into ALERT_KINDS
    observed: np.ndarray     # float64: the reading that crossed
    threshold: np.ndarray    # float64: the limit it crossed
    timestamp_s: np.ndarray  # int64 in a season

    def __len__(self) -> int:
        return len(self.timestamp_s)


@dataclass
class SeasonResult:
    """Outcome of one policy arm over one season."""

    policy: str
    events: list[IrrigationEvent]
    daily: list[DailyRecord]
    samples: Samples
    alerts: Alerts
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


@dataclass(frozen=True)
class SeasonDrivers:
    """Policy-free season inputs that every arm of a run shares, read-only."""

    weather: list[WeatherDay]
    soil_z: np.ndarray        # (days, slots)
    noise_digest: str
    timestamp_s: np.ndarray   # int64, one per reading
    temp_c: np.ndarray        # float64, one per reading
    humidity_pct: np.ndarray
    etc_mm: list[float]       # one per day


def season_drivers(scenario: Scenario, weather: list[WeatherDay],
                   noise_seed) -> SeasonDrivers:
    """One noise block of ``noise_seed``, one standard normal per reading in
    (soil, temp, rh) order per slot, whose sha256 goes into the manifest so
    that a change in the noise a run drew shows there; air readings of a
    diurnal sinusoid; crop ET."""
    days, interval = len(weather), scenario.soil_sensor.sample_interval_s
    samples_per_day = SECONDS_PER_DAY // interval
    z = np.random.default_rng(noise_seed).standard_normal(
        (days, samples_per_day, 3))
    digest = hashlib.sha256(z).hexdigest()  # z.tobytes(), without the copy
    t_min, t_max, rh_mean = np.array(
        [(w.t_min_c, w.t_max_c, w.rh_mean_pct) for w in weather]).T[:, :, None]
    t_true = (t_min + t_max) / 2.0 + (t_max - t_min) / 2.0 * \
        _diurnal_cosines(interval, samples_per_day)
    temp, rh = sample_air_sensor(t_true, rh_mean, scenario.air_noise_sigma,
                                 z[:, :, 1], z[:, :, 2])
    # day * SECONDS_PER_DAY + slot * interval: the interval divides a day
    timestamps = interval * np.arange(1, days * samples_per_day + 1,
                                      dtype=np.int64)
    soil_z, temp, rh = z[:, :, 0], temp.ravel(), rh.ravel()
    for column in (soil_z, timestamps, temp, rh):  # the sensor arm's Samples
        column.flags.writeable = False
    latitude = scenario.season.latitude_deg
    etcs = [crop_et(et0_hargreaves(w.t_min_c, w.t_max_c, latitude,
                                   w.day_of_year), w.day_index,
                    scenario.calendar) for w in weather]
    return SeasonDrivers(weather, soil_z, digest, timestamps, temp, rh, etcs)


def schedule_season(policy: str, scenario: Scenario,
                    drivers: SeasonDrivers) -> SeasonResult:
    """Run one policy arm over the season inputs that all arms share.

    SENSOR_DRIVEN applies the threshold rules to every sampling step's
    noisy sensor readings (ground truth interpolated between daily states)
    and applies at most one irrigation event per calendar day: the first
    reading with a positive depth, sized from the sensed depletion up to the
    per-event cap. CALENDAR_BASELINE irrigates a fixed depth on a fixed day
    interval regardless of state.

    The soil balance itself advances daily; irrigation decided mid-day is
    applied within that day's step. Within a day the ground truth is the
    no-irrigation projection, so no reading depends on that day's decision,
    and up to the next irrigation every reading follows from the
    no-irrigation bucket. SENSOR_DRIVEN therefore reads its soil by stretch:
    it projects the scalar bucket without irrigation over a look-ahead
    window, reads the window as one (days, slots) batch and takes its first
    positive depth. The days before it are final as projected, the trigger
    day is stepped again with its depth, and the next stretch starts the day
    after; a window without a trigger is final as a whole. The first window
    is the rest of the season, then the length of the dry-down that just
    ended, doubling after each window without a trigger. Each batch makes at
    least one day final. The baseline has no sensor: it steps the bucket
    once a day with that day's calendar depth, and its readings and alerts
    have no rows. Each arm's alert mask is one ``evaluate`` call.
    """
    if policy not in (SENSOR_DRIVEN, CALENDAR_BASELINE):
        raise InputError(f"unknown policy: {policy}")

    weather, etcs, z = drivers.weather, drivers.etc_mm, drivers.soil_z
    days, samples_per_day = z.shape
    timestamps, temp, rh = (drivers.timestamp_s, drivers.temp_c,
                            drivers.humidity_pct)
    profile = scenario.profile
    taw = profile.taw_mm
    thr = scenario.thresholds
    cap = scenario.irrigation.cap_mm
    baseline = scenario.baseline
    frac = np.arange(1, samples_per_day + 1) / samples_per_day

    events: list[IrrigationEvent] = []
    daily: list[DailyRecord] = []
    dep0 = scenario.irrigation.initial_depletion_mm

    if policy == SENSOR_DRIVEN:
        moisture = np.empty((days, samples_per_day))
        day = since = 0  # the first day of the stretch and of the dry-down
        window = days
        while day < days:
            stop = min(day + window, days)
            starts, flows = [], []  # the no-irrigation bucket, day by day
            for d in range(day, stop):
                starts.append(dep0)
                flows.append(step_soil_water(dep0, weather[d], 0.0, etcs[d],
                                             profile))
                dep0 = flows[-1][0]
            # the ground truth runs from each start-of-day depletion towards
            # the day's no-irrigation projection
            start = np.array(starts)[:, None]
            true_dep = start + frac * (np.array([f[0] for f in flows])[:, None]
                                       - start)
            readings = sample_soil_sensor(
                depletion_to_moisture_pct(np.minimum(true_dep, taw), profile),
                scenario.soil_sensor, z[day:stop])
            sensed = np.clip(moisture_pct_to_depletion(readings, profile),
                             0.0, taw)
            depth = _refill_depth(readings, sensed, thr, cap)
            wet = np.flatnonzero(depth > 0.0)
            final = stop - day  # the days this window makes final
            if wet.size:  # row-major: the earliest day's first trigger
                r, k = divmod(wet[0].item(), samples_per_day)
                final = r + 1
            moisture[day:day + final] = readings[:final]
            daily.extend(DailyRecord(day + j, starts[j], *flows[j], 0.0)
                         for j in range(final))
            if wet.size:
                t = day + r
                irrigation = depth[r, k].item()
                events.append(IrrigationEvent(
                    t, irrigation, f"soil moisture {readings[r, k]:.1f}% "
                    f"below trigger {thr.soil_moisture_trigger_pct:.0f}%"))
                daily[-1] = DailyRecord(t, starts[r], *step_soil_water(
                    starts[r], weather[t], irrigation, etcs[t], profile),
                    irrigation)
                dep0 = daily[-1].depletion_end_mm
                window, since = t + 1 - since, t + 1
            else:
                window *= 2
            day += final
        moisture = moisture.ravel()
    else:
        for w, etc in zip(weather, etcs):
            irrigation = 0.0
            if w.day_index % baseline.interval_days == 0:
                irrigation = baseline.depth_mm
                events.append(IrrigationEvent(w.day_index, irrigation,
                                              "calendar interval"))
            daily.append(DailyRecord(w.day_index, dep0, *step_soil_water(
                dep0, w, irrigation, etc, profile), irrigation))
            dep0 = daily[-1].depletion_end_mm
        # no sensor: no readings, in the readings' dtypes
        timestamps, moisture, temp, rh = (
            column[:0] for column in (timestamps, temp, temp, rh))

    # each total starts at 0.0 and adds the day's value in day order
    eta_total = irrigation_total = etm_total = 0.0
    for record, etc in zip(daily, etcs):
        eta_total += record.eta_mm
        irrigation_total += record.irrigation_mm
        etm_total += etc
    fired = evaluate(moisture, temp, rh, thr)
    # row-major: readings in time order, each in ALERT_KINDS order
    rows, kinds = np.nonzero(fired)
    limits = np.array((thr.temp_alert_c, *thr.humidity_range_pct,
                       thr.soil_moisture_trigger_pct))
    observed = np.choose(kinds, [r[rows] for r in (temp, rh, rh, moisture)])
    alerts = Alerts(kind=kinds, observed=observed, threshold=limits[kinds],
                    timestamp_s=timestamps[rows])
    samples = Samples(timestamp_s=timestamps, moisture_pct=moisture,
                      temp_c=temp, humidity_pct=rh)
    return SeasonResult(
        policy=policy, events=events, daily=daily, samples=samples,
        alerts=alerts, irrigation_total_mm=irrigation_total,
        eta_total_mm=eta_total, etm_total_mm=etm_total,
        noise_digest=drivers.noise_digest)
