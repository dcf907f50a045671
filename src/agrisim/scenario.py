"""Scenario configuration: a single YAML file describing weather envelope,
soil, sensors, thresholds, crop calendar, link/energy models, the baseline
irrigation policy, economics, and report targets.

Loading is strict: unknown keys anywhere in the file are rejected, so a typo
in a threshold cannot silently change an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from agrisim import transport
from agrisim.decision import CropCalendar, Thresholds
from agrisim.errors import ConfigurationError
from agrisim.fieldsim import SeasonConfig, SensorSpec, SoilProfile
from agrisim.ingest import Channel
from agrisim.alerting import GatewayConfig
from agrisim.metrics import EconomicParams

DEFAULT_SCENARIO = "mubende_dry"


@dataclass(frozen=True)
class YieldModelParams:
    ky: float = 1.25
    max_yield_kg_per_acre: float = 1250.0

    def __post_init__(self):
        if self.ky <= 0.0 or self.max_yield_kg_per_acre <= 0.0:
            raise ConfigurationError("yield model parameters must be positive")


@dataclass(frozen=True)
class IrrigationPolicyParams:
    cap_mm: float = 25.0
    initial_depletion_mm: float = 0.0

    def __post_init__(self):
        if self.cap_mm <= 0.0 or self.initial_depletion_mm < 0.0:
            raise ConfigurationError("invalid irrigation policy parameters")


@dataclass(frozen=True)
class BaselinePolicyParams:
    interval_days: int = 4
    depth_mm: float = 12.0

    def __post_init__(self):
        if self.interval_days < 1 or self.depth_mm <= 0.0:
            raise ConfigurationError("invalid baseline policy parameters")


@dataclass(frozen=True)
class AlertingParams:
    locale: str = "en"
    dedup_window_s: float = 12 * 3600.0

    def __post_init__(self):
        if self.locale not in ("en", "lg"):
            raise ConfigurationError(f"unsupported locale: {self.locale}")
        if self.dedup_window_s <= 0.0:
            raise ConfigurationError("dedup_window_s must be positive")


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    field_id: str
    season: SeasonConfig
    profile: SoilProfile
    soil_sensor: SensorSpec
    air_noise_sigma: float
    thresholds: Thresholds
    calendar: CropCalendar
    link: transport.LinkModel
    qos: int
    energy: transport.EnergyModel
    irrigation: IrrigationPolicyParams
    baseline: BaselinePolicyParams
    economics: EconomicParams
    yield_model: YieldModelParams
    channel: Channel
    gateway: GatewayConfig
    alerting: AlertingParams
    report_targets: dict[str, float]


def _section(raw: dict, key: str, allowed: set[str], required: set[str] = frozenset()):
    sec = raw.get(key)
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigurationError(f"section '{key}' must be a mapping")
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in '{key}': {sorted(unknown)}")
    missing = required - set(sec)
    if missing:
        raise ConfigurationError(f"missing keys in '{key}': {sorted(missing)}")
    return sec


_TOP_KEYS = {"name", "seed", "field_id", "season", "soil_profile", "sensors",
             "thresholds", "crop_calendar", "link", "energy", "irrigation",
             "baseline", "economics", "yield_model", "channel", "gateway",
             "alerting", "report_targets"}

_REPORT_TARGET_KEYS = {"Temperature", "Humidity", "Soil Moisture",
                       "Data Transmission", "Water Usage", "Crop Yield",
                       "Energy Efficiency"}


def parse_scenario(raw: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a parsed YAML mapping into a Scenario."""
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario file must contain a mapping")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"unknown top-level keys: {sorted(unknown)}")
    if "seed" not in raw:
        raise ConfigurationError("scenario must pin a seed (no wall-clock entropy)")

    season_sec = _section(raw, "season",
                          {"days", "start_day_of_year", "latitude_deg",
                           "temp_envelope_c", "rh_envelope_pct", "dry_season",
                           "rain_probability", "rain_mean_mm"}, {"days"})
    if "temp_envelope_c" in season_sec:
        season_sec = {**season_sec,
                      "temp_envelope_c": tuple(season_sec["temp_envelope_c"])}
    if "rh_envelope_pct" in season_sec:
        season_sec = {**season_sec,
                      "rh_envelope_pct": tuple(season_sec["rh_envelope_pct"])}
    season = SeasonConfig(**season_sec)

    profile = SoilProfile(**_section(raw, "soil_profile",
                                     {"theta_sat", "theta_fc", "theta_wp",
                                      "theta_ad", "root_depth_m",
                                      "depletion_fraction_p"}))

    sensors = _section(raw, "sensors", {"soil", "air"})
    soil_keys = {"adc_bits", "air_counts", "water_counts", "noise_sigma",
                 "sample_interval_s", "depth_cm"}
    soil_sec = dict(_section(sensors, "soil", soil_keys))
    # the bucket has one root zone, so the probe depth changes no reading;
    # the key stays accepted (the shipped scenario sets it) but must lie
    # inside the root zone
    depth_cm = soil_sec.pop("depth_cm", None)
    root_cm = 100.0 * profile.root_depth_m
    if depth_cm is not None and not (
            isinstance(depth_cm, (int, float)) and 0.0 < depth_cm <= root_cm):
        raise ConfigurationError(
            f"sensors.soil.depth_cm {depth_cm!r} outside the root zone "
            f"(0, {root_cm:g}] cm")
    soil_sensor = SensorSpec(**soil_sec)
    air_sec = _section(sensors, "air", {"noise_sigma", "sample_interval_s"})
    air_noise_sigma = air_sec.get("noise_sigma", 0.0)
    if not (isinstance(air_noise_sigma, (int, float)) and air_noise_sigma >= 0):
        raise ConfigurationError(
            f"sensors.air.noise_sigma must be a non-negative number: "
            f"{air_noise_sigma!r}")
    # the season kernel samples both sensors together on whole-day grids
    transport.season_packet_count(season.days, soil_sensor.sample_interval_s)
    air_interval = air_sec.get("sample_interval_s",
                               SensorSpec.sample_interval_s)
    if air_interval != soil_sensor.sample_interval_s:
        raise ConfigurationError(
            f"sensors.air.sample_interval_s {air_interval} "
            f"!= sensors.soil.sample_interval_s "
            f"{soil_sensor.sample_interval_s}: both sensors share one "
            f"sampling schedule")

    thr_sec = _section(raw, "thresholds",
                       {"soil_moisture_trigger_pct", "temp_alert_c",
                        "humidity_range_pct"})
    if "humidity_range_pct" in thr_sec:
        thr_sec = {**thr_sec,
                   "humidity_range_pct": tuple(thr_sec["humidity_range_pct"])}
    thresholds = Thresholds(**thr_sec)

    cal_sec = _section(raw, "crop_calendar",
                       {"stage_days", "kc_initial", "kc_mid", "kc_end"})
    kc = {k: cal_sec[k] for k in ("kc_initial", "kc_mid", "kc_end")
          if k in cal_sec}
    if "stage_days" in cal_sec:
        stages = cal_sec["stage_days"]
        if len(stages) != 4:
            raise ConfigurationError("stage_days must list four stage lengths")
        if sum(stages) != season.days:
            raise ConfigurationError(
                f"stage_days sum {sum(stages)} != season days {season.days}")
        calendar = CropCalendar(*stages, **kc)
    else:
        calendar = CropCalendar.maize(season.days, **kc)

    link_sec = _section(raw, "link", {"loss_prob", "latency_s", "max_retries",
                                      "qos"})
    qos = link_sec.get("qos", 0)
    link_sec = {k: v for k, v in link_sec.items() if k != "qos"}
    if qos not in (0, 1):
        raise ConfigurationError(f"qos must be 0 or 1: {qos}")
    if "latency_s" in link_sec:
        lat = link_sec["latency_s"]
        link_sec = {**link_sec, "latency_s": {
            transport.PUBSUB: float(lat.get("pubsub", 3.0)),
            transport.REQRESP: float(lat.get("reqresp", 10.0))}}
    link = transport.LinkModel(**link_sec)

    energy_sec = _section(raw, "energy", {"per_message_mwh", "idle_mwh_per_day"})
    energy_kwargs = {}
    if "per_message_mwh" in energy_sec:
        per = _section(energy_sec, "per_message_mwh", {"pubsub", "reqresp"},
                       {"pubsub", "reqresp"})
        energy_kwargs["energy_per_message_mwh"] = {
            transport.PUBSUB: float(per["pubsub"]),
            transport.REQRESP: float(per["reqresp"])}
    if "idle_mwh_per_day" in energy_sec:
        energy_kwargs["idle_mwh_per_day"] = energy_sec["idle_mwh_per_day"]
    energy = transport.EnergyModel(**energy_kwargs)

    irrigation = IrrigationPolicyParams(
        **_section(raw, "irrigation", {"cap_mm", "initial_depletion_mm"}))
    baseline = BaselinePolicyParams(
        **_section(raw, "baseline", {"interval_days", "depth_mm"}))
    economics = EconomicParams(
        **_section(raw, "economics",
                   {"maize_price_ugx_per_kg", "water_cost_ugx_per_l",
                    "labor_cost_ugx_per_event"}))
    if (economics.water_cost_ugx_per_l == 0.0
            and economics.labor_cost_ugx_per_event == 0.0):
        raise ConfigurationError(
            "water_cost_ugx_per_l and labor_cost_ugx_per_event are both 0: "
            "the baseline cost that cost savings are a fraction of is 0")
    yield_model = YieldModelParams(
        **_section(raw, "yield_model", {"ky", "max_yield_kg_per_acre"}))

    chan_sec = _section(raw, "channel",
                        {"channel_id", "write_key", "min_update_interval_s"},
                        {"channel_id", "write_key"})
    channel = Channel(field_names=("moisture", "temp", "humidity"), **chan_sec)

    gateway = GatewayConfig(
        **_section(raw, "gateway", {"kind", "endpoint", "phone", "api_key"}))
    alerting_params = AlertingParams(
        **_section(raw, "alerting", {"locale", "dedup_window_s"}))

    targets_sec = _section(raw, "report_targets", _REPORT_TARGET_KEYS)
    report_targets = {
        "Temperature": 35.0, "Humidity": 70.0, "Soil Moisture": 30.0,
        "Data Transmission": 95.0, "Water Usage": 25.0, "Crop Yield": 20.0,
        "Energy Efficiency": 90.0,
    }
    report_targets.update({k: float(v) for k, v in targets_sec.items()})

    return Scenario(
        name=str(raw.get("name", name_hint)),
        seed=int(raw["seed"]),
        field_id=str(raw.get("field_id", "field-1")),
        season=season, profile=profile,
        soil_sensor=soil_sensor, air_noise_sigma=air_noise_sigma,
        thresholds=thresholds, calendar=calendar,
        link=link, qos=qos, energy=energy,
        irrigation=irrigation, baseline=baseline,
        economics=economics, yield_model=yield_model,
        channel=channel, gateway=gateway, alerting=alerting_params,
        report_targets=report_targets,
    )


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        with path.open() as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    return parse_scenario(raw, name_hint=path.stem)


def default_scenario_path():
    """Path to the shipped default scenario (context-managed resource)."""
    return resources.as_file(
        resources.files("agrisim").joinpath(f"data/{DEFAULT_SCENARIO}.yaml"))


def load_default_scenario() -> Scenario:
    with default_scenario_path() as path:
        return load_scenario(path)
