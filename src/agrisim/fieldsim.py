"""Synthetic field model: seeded weather, a daily root-zone water bucket, and
noisy calibrated sensors.

The field is a single representative point. Weather is drawn inside a
configured envelope (deterministic per seed), the soil evolves as a
single-bucket depletion balance with a linear stress coefficient, and sensors
report the bucket state on a fixed sub-daily schedule with Gaussian noise and
two-point calibration.

Soil moisture is reported on a normalized display scale: 0% at air-dry,
100% at saturation. Thresholds like "irrigate below 25%" refer to this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from agrisim.errors import ConfigurationError, InputError

SECONDS_PER_DAY = 86_400
SENSOR_TEMP_MIN_C = -40.0
SENSOR_TEMP_MAX_C = 80.0


@dataclass(frozen=True)
class WeatherDay:
    """One day of synthetic weather."""

    day_index: int
    day_of_year: int
    t_min_c: float
    t_max_c: float
    rh_mean_pct: float
    rain_mm: float

    def __post_init__(self):
        if not self.t_min_c <= self.t_max_c:
            raise ConfigurationError(
                f"t_min_c {self.t_min_c} above t_max_c {self.t_max_c}")
        if not 0.0 <= self.rh_mean_pct <= 100.0:
            raise ConfigurationError(f"humidity out of range: {self.rh_mean_pct}")
        if self.rain_mm < 0.0:
            raise ConfigurationError(f"negative rain: {self.rain_mm}")


@dataclass(frozen=True)
class SeasonConfig:
    """Season length, location, and the weather envelope."""

    days: int
    start_day_of_year: int = 182
    latitude_deg: float = 0.4
    temp_envelope_c: tuple[float, float] = (15.0, 30.0)
    rh_envelope_pct: tuple[float, float] = (30.0, 60.0)
    dry_season: bool = True
    rain_probability: float = 0.0
    rain_mean_mm: float = 0.0

    def __post_init__(self):
        if self.days < 1:
            raise ConfigurationError("season must be at least 1 day")
        if not self.temp_envelope_c[0] < self.temp_envelope_c[1]:
            raise ConfigurationError(  # no diurnal range would mean no ET0
                f"temperature envelope not increasing: {self.temp_envelope_c}")
        if self.rh_envelope_pct[0] > self.rh_envelope_pct[1]:
            raise ConfigurationError(
                f"humidity envelope reversed: {self.rh_envelope_pct}"
            )
        if not (0.0 <= self.rh_envelope_pct[0] and self.rh_envelope_pct[1] <= 100.0):
            raise ConfigurationError("humidity envelope outside [0, 100]")
        if not 1 <= self.start_day_of_year <= 365:
            raise ConfigurationError("start_day_of_year must be in [1, 365]")
        # the sunset-hour-angle formula has no solution beyond the polar circles
        if not -66.0 <= self.latitude_deg <= 66.0:
            raise ConfigurationError(
                f"latitude_deg outside [-66, 66]: {self.latitude_deg}")
        if not (0.0 <= self.rain_probability <= 1.0 and self.rain_mean_mm >= 0.0):
            raise ConfigurationError(
                f"need 0 <= rain_probability <= 1 and rain_mean_mm >= 0: "
                f"{self.rain_probability}, {self.rain_mean_mm}")
        # generate_weather draws no rain in a dry season
        for key in ("rain_probability", "rain_mean_mm"):
            if self.dry_season and getattr(self, key) != 0.0:
                raise ConfigurationError(
                    f"{key} is {getattr(self, key)} but dry_season is true, "
                    f"which has no rain")


@dataclass(frozen=True)
class SoilProfile:
    """Bucket-model soil parameters for the root zone.

    theta_ad is the air-dry water content anchoring 0% on the display scale;
    theta_sat anchors 100%. Artifact defaults approximate a loam under maize
    and are meant to be overridden per scenario.
    """

    theta_sat: float = 0.45
    theta_fc: float = 0.32
    theta_wp: float = 0.15
    theta_ad: float = 0.05
    root_depth_m: float = 0.6
    depletion_fraction_p: float = 0.55

    def __post_init__(self):
        if not (0.0 < self.theta_ad < self.theta_wp < self.theta_fc
                < self.theta_sat < 1.0):
            raise ConfigurationError(
                "soil water contents must satisfy "
                "0 < theta_ad < theta_wp < theta_fc < theta_sat < 1"
            )
        if not 0.0 < self.depletion_fraction_p < 1.0:
            raise ConfigurationError("depletion_fraction_p must be in (0, 1)")
        if not self.root_depth_m > 0.0:
            raise ConfigurationError("root_depth_m must be positive")

    @property
    def taw_mm(self) -> float:
        """Total available water in the root zone (mm)."""
        return 1000.0 * (self.theta_fc - self.theta_wp) * self.root_depth_m


@dataclass(frozen=True)
class SensorSpec:
    """A buried capacitive soil-moisture probe: two-point calibration anchors
    in counts, count noise, and the sampling interval of both sensors."""

    air_counts: float = 3500.0
    water_counts: float = 1200.0
    noise_sigma: float = 0.0
    sample_interval_s: int = 300

    def __post_init__(self):
        # wetter soil reads lower, and no count is negative
        if not 0.0 <= self.water_counts < self.air_counts:
            raise ConfigurationError("need 0 <= water_counts < air_counts")
        # the season kernel samples on a grid that repeats every day
        if self.sample_interval_s <= 0 or SECONDS_PER_DAY % self.sample_interval_s:
            raise ConfigurationError(
                f"sample_interval_s must be a whole number of seconds dividing "
                f"{SECONDS_PER_DAY}: {self.sample_interval_s}")
        if not self.noise_sigma >= 0.0:
            raise ConfigurationError("noise_sigma must be non-negative")


def generate_weather(season: SeasonConfig, seed: int) -> list[WeatherDay]:
    """Draw one WeatherDay per season day, deterministically for a seed.

    Daily means follow a slow sinusoid across the season plus seeded noise,
    clipped strictly inside the envelope so the diurnal spread always fits.
    Dry-season scenarios force rain to zero.
    """
    rng = np.random.default_rng(seed)
    t_lo, t_hi = season.temp_envelope_c
    rh_lo, rh_hi = season.rh_envelope_pct
    t_mid, t_half = (t_lo + t_hi) / 2.0, (t_hi - t_lo) / 2.0
    rh_mid, rh_half = (rh_lo + rh_hi) / 2.0, (rh_hi - rh_lo) / 2.0

    days = []
    for i in range(season.days):
        phase = 2.0 * math.pi * i / max(season.days, 2)
        c = t_mid + 0.35 * t_half * math.sin(phase + 0.7)
        c += rng.normal(0.0, 0.15 * t_half)
        # keep the center strictly inside so the diurnal spread is positive
        margin = 0.08 * t_half
        c = min(max(c, t_lo + margin), t_hi - margin)
        spread = rng.uniform(0.55, 0.95) * min(c - t_lo, t_hi - c)
        t_min, t_max = c - spread, c + spread

        rh = rh_mid + 0.4 * rh_half * math.sin(phase + 2.1)
        rh += rng.normal(0.0, 0.2 * rh_half)
        rh = float(min(max(rh, rh_lo), rh_hi))  # the envelope may hold ints

        if season.dry_season:
            rain = 0.0
        else:
            wet = rng.random() < season.rain_probability
            rain = float(rng.exponential(season.rain_mean_mm)) if wet else 0.0

        doy = (season.start_day_of_year - 1 + i) % 365 + 1
        days.append(WeatherDay(
            day_index=i, day_of_year=doy,
            t_min_c=t_min, t_max_c=t_max, rh_mean_pct=rh, rain_mm=rain,
        ))
    return days


def step_soil_water(depletion_mm: float, weather: WeatherDay,
                    irrigation_mm: float, etc_mm: float,
                    profile: SoilProfile) -> tuple[float, float, float]:
    """Advance the bucket one day from ``depletion_mm``.

    Returns ``(depletion_end_mm, eta_mm, drainage_mm)``: the depletion at the
    end of the day and the day's own crop uptake and drainage. Water in
    (rain + irrigation) first reduces depletion, with any surplus past field
    capacity leaving as drainage; crop water uptake then increases depletion,
    scaled by the stress coefficient Ks and capped so depletion never exceeds
    total available water. The step conserves water exactly:
    (rain + irrigation) - (ETa + drainage) == -delta(depletion).
    """
    for name, v in (("rain", weather.rain_mm), ("irrigation", irrigation_mm),
                    ("etc", etc_mm)):
        if not math.isfinite(v) or v < 0.0:
            raise InputError(f"{name} must be finite and non-negative, got {v}")

    water_in = weather.rain_mm + irrigation_mm
    drainage = max(0.0, water_in - depletion_mm)
    dep_wet = max(0.0, depletion_mm - water_in)
    # cap uptake so depletion cannot overshoot TAW
    eta = min(etc_mm * ks_stress(depletion_mm, profile),
              profile.taw_mm - dep_wet)
    return dep_wet + eta, eta, drainage


def ks_stress(depletion_mm: float, profile: SoilProfile) -> float:
    """Linear water-stress coefficient: 1 while depletion <= RAW, falling to
    0 at TAW."""
    taw = profile.taw_mm
    p = profile.depletion_fraction_p
    ks = (taw - depletion_mm) / (taw * (1.0 - p))
    return min(max(ks, 0.0), 1.0)


def depletion_to_moisture_pct(depletion_mm, profile: SoilProfile) -> np.ndarray:
    """Map bucket depletion onto the 0-100% air-dry..saturation display scale.

    Works elementwise on an array of depletions (a scalar gives a 0-d array).
    """
    dep = np.asarray(depletion_mm, dtype=np.float64)
    taw = profile.taw_mm
    inside = (dep >= 0.0) & (dep <= taw + 1e-9)
    if not inside.all():
        raise InputError(f"depletion {dep[~inside][0]} outside [0, TAW={taw}]")
    theta = profile.theta_fc - dep / (1000.0 * profile.root_depth_m)
    pct = 100.0 * (theta - profile.theta_ad) / (profile.theta_sat - profile.theta_ad)
    return np.clip(pct, 0.0, 100.0)


def moisture_pct_to_depletion(moisture_pct: float | np.ndarray,
                              profile: SoilProfile) -> float | np.ndarray:
    """Inverse of the display mapping (unclamped in depletion; may exceed TAW
    when the percentage lies below the wilting point). Works elementwise: an
    array of readings gives an array of depletions."""
    theta = (profile.theta_ad
             + moisture_pct / 100.0 * (profile.theta_sat - profile.theta_ad))
    return (profile.theta_fc - theta) * 1000.0 * profile.root_depth_m


def soil_raw_counts(true_moisture_pct: float, spec: SensorSpec) -> float:
    """Noiseless ADC counts for a moisture level (linear two-point model)."""
    frac = true_moisture_pct / 100.0
    return spec.air_counts + frac * (spec.water_counts - spec.air_counts)


def sample_soil_sensor(true_moisture_pct: np.ndarray, spec: SensorSpec,
                       noise_z: np.ndarray) -> np.ndarray:
    """Simulate soil-probe readings: raw counts plus Gaussian noise (one
    standard normal per reading), two-point calibrated back to percent and
    clipped to [0, 100]. The counts need no clip to an ADC range: a count
    below 0 reads above 100%, and one above ``air_counts`` below 0%."""
    raw = soil_raw_counts(true_moisture_pct, spec) + spec.noise_sigma * noise_z
    value = 100.0 * (spec.air_counts - raw) / (spec.air_counts - spec.water_counts)
    return np.clip(value, 0.0, 100.0)


def _round_tenths(values: np.ndarray) -> np.ndarray:
    """``round(v, 1)`` of each value, bit for bit.

    Python's round works on the exact binary value; ``np.round(10 * v)``
    rounds ``10 * v``, which is off by about 1e-14 for clipped readings. The
    two pick the same integer except near a halfway point, so only those
    values go through Python's round. Works on an array of any shape.
    """
    scaled = 10.0 * values
    rounded = np.round(scaled) / 10.0
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    rounded[near_half] = [round(v, 1) for v in values[near_half].tolist()]
    return rounded


def sample_air_sensor(t_true_c: np.ndarray, rh_true_pct: float | np.ndarray,
                      noise_sigma: float, temp_z: np.ndarray, rh_z: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Simulate paired temperature/humidity readings quantized to 0.1, one
    standard normal per reading in each noise array, both scaled by
    ``noise_sigma``. Works elementwise: ``rh_true_pct`` may be a scalar or
    an array that broadcasts against the others."""
    t = np.clip(t_true_c + noise_sigma * temp_z,
                SENSOR_TEMP_MIN_C, SENSOR_TEMP_MAX_C)
    rh = np.clip(rh_true_pct + noise_sigma * rh_z, 0.0, 100.0)
    return _round_tenths(t), _round_tenths(rh)
