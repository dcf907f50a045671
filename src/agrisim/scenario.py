"""Scenario configuration: a single YAML file describing weather envelope,
soil, sensors, thresholds, crop calendar, link/energy models, the baseline
irrigation policy, economics, and report targets.

Loading is strict: an unknown key or a key written twice is rejected, so a typo
in a threshold cannot silently change an experiment, and a value of the wrong
type fails at load time. A section that maps onto a config dataclass takes its
keys and types from the fields; range rules live in the dataclasses, and rules
across sections in ``Scenario``, so that a scenario built in code keeps them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import MISSING, dataclass
from pathlib import Path

from agrisim import transport, yamlfile
from agrisim.decision import CropCalendar, Thresholds
from agrisim.errors import ConfigurationError
from agrisim.fieldsim import SeasonConfig, SensorSpec, SoilProfile
from agrisim.ingest import Channel
from agrisim.alerting import AlertingParams, GatewayConfig
from agrisim.metrics import REPORT_LAYOUT, EconomicParams

DEFAULT_SCENARIO = "mubende_dry"


@dataclass(frozen=True)
class YieldModelParams:
    ky: float = 1.25
    max_yield_kg_per_acre: float = 1250.0

    def __post_init__(self):
        if not (self.ky > 0.0 and self.max_yield_kg_per_acre > 0.0):
            raise ConfigurationError("yield model parameters must be positive")


@dataclass(frozen=True)
class IrrigationPolicyParams:
    cap_mm: float = 25.0
    initial_depletion_mm: float = 0.0

    def __post_init__(self):
        if not (self.cap_mm > 0.0 and self.initial_depletion_mm >= 0.0):
            raise ConfigurationError("invalid irrigation policy parameters")


@dataclass(frozen=True)
class BaselinePolicyParams:
    interval_days: int = 4
    depth_mm: float = 12.0

    def __post_init__(self):
        if self.interval_days < 1 or not self.depth_mm > 0.0:
            raise ConfigurationError("invalid baseline policy parameters")


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

    def __post_init__(self):
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise ConfigurationError(f"seed must be non-negative: {self.seed}")
        if not self.air_noise_sigma >= 0.0:
            raise ConfigurationError("air_noise_sigma must be non-negative")
        if self.qos not in (0, 1):
            raise ConfigurationError(f"link.qos must be 0 or 1: {self.qos!r}")
        if self.calendar.season_total_days != self.season.days:
            raise ConfigurationError(
                f"crop_calendar.stage_days sum "
                f"{self.calendar.season_total_days} != season days "
                f"{self.season.days}")
        taw = self.profile.taw_mm
        if self.irrigation.initial_depletion_mm > taw:
            raise ConfigurationError(
                f"irrigation.initial_depletion_mm "
                f"{self.irrigation.initial_depletion_mm!r} exceeds the soil "
                f"profile's TAW {taw:g} mm")
        yamlfile.mapping(self.report_targets, "report_targets",
                         _REPORT_TARGETS, _REPORT_TARGETS)
        for name, target in self.report_targets.items():
            if not abs(target) > 0.0:  # the radar rows divide by it
                raise ConfigurationError(f"report_targets.{name} must not be 0")
        try:  # the loader's finite rule, also for a scenario built in code
            json.dumps(dataclasses.asdict(self), allow_nan=False)
        except ValueError:
            raise ConfigurationError("scenario numbers must be finite") from None


def _section(raw: dict, where: str, allowed=None, required=()) -> dict:
    """The mapping at dotted path ``where`` in ``raw``, empty when absent:
    only ``allowed`` keys (any when None), all ``required`` ones."""
    for key in where.split("."):
        raw = yamlfile.mapping({} if raw.get(key) is None else raw[key], where)
    return yamlfile.mapping(raw, where, allowed, required)


def _typed(value, hint, where: str):
    """``value`` checked against the declared type ``hint``: a bool is not a
    number, an int is a float but not the reverse, a float is finite and
    returned as a float (so ``48`` and ``48.0`` load alike), and a
    ``tuple[...]`` is a YAML list of its length, returned as a tuple."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if isinstance(value, list) and args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigurationError(f"{where}: {value!r} is not a {hint} list")
        return tuple(_typed(v, t, f"{where}[{i}]")
                     for i, (v, t) in enumerate(zip(value, args)))
    # the bound also keeps out an int too large for float() to convert
    if (not isinstance(value, (int, float) if hint is float else hint)
            or isinstance(value, bool) != (hint is bool)
            or hint is float and not abs(value) <= sys.float_info.max):
        raise ConfigurationError(
            f"{where}: {value!r} is not a valid {hint.__name__}")
    return float(value) if hint is float else value


@functools.cache
def _hints(cls) -> dict:
    """The resolved field types of the config dataclass ``cls``."""
    return typing.get_type_hints(cls)


def _build(cls, raw: dict, where: str, skip=frozenset()):
    """The config dataclass ``cls`` built from the section at ``where``: its
    keys are the fields plus ``skip`` (read by the caller), the fields
    without a default are required, and values are ``_typed``."""
    fields = dataclasses.fields(cls)
    required = {f.name for f in fields
                if f.default is MISSING and f.default_factory is MISSING}
    sec = _section(raw, where, {f.name for f in fields} | skip, required)
    hints = _hints(cls)
    kwargs = {k: _typed(v, hints[k], f"{where}.{k}")
              for k, v in sec.items() if k not in skip}
    return cls(**kwargs)


def _per_protocol(raw: dict, where: str, default=None) -> dict:
    """The ``{pubsub, reqresp}`` map at ``where`` as a ``{PUBSUB, REQRESP}``
    dict of floats; missing keys take ``default``'s values or are errors."""
    names = {"pubsub": transport.PUBSUB, "reqresp": transport.REQRESP}
    sec = _section(raw, where, names, () if default else names)
    return {proto: _typed(sec[k], float, f"{where}.{k}")
            if k in sec else default[proto] for k, proto in names.items()}


_TOP_KEYS = {"name", "seed", "field_id", "season", "soil_profile", "sensors",
             "thresholds", "crop_calendar", "link", "energy", "irrigation",
             "baseline", "economics", "yield_model", "channel", "gateway",
             "alerting", "report_targets"}
_REPORT_TARGETS = {name: target for name, _, _, target in REPORT_LAYOUT}


def parse_scenario(raw: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a parsed YAML mapping into a Scenario, leaving it unchanged."""
    # a scenario pins its seed: a run draws no wall-clock entropy
    yamlfile.mapping(raw, "scenario", _TOP_KEYS, {"seed"})

    season = _build(SeasonConfig, raw, "season")
    profile = _build(SoilProfile, raw, "soil_profile")

    _section(raw, "sensors", {"soil", "air"})
    soil_sensor = _build(SensorSpec, raw, "sensors.soil")
    # both sensors share the soil sensor's sampling interval
    air = _section(raw, "sensors.air", {"noise_sigma"})
    air_noise_sigma = _typed(air.get("noise_sigma", 0.0), float,
                             "sensors.air.noise_sigma")

    cal = _section(raw, "crop_calendar",
                   {"stage_days", "kc_initial", "kc_mid", "kc_end"})
    kc = {k: _typed(v, float, f"crop_calendar.{k}")
          for k, v in cal.items() if k != "stage_days"}
    if "stage_days" in cal:
        stages = _typed(cal["stage_days"], tuple[int, ...],
                        "crop_calendar.stage_days")
        if len(stages) != 4:
            raise ConfigurationError("stage_days must list four stage lengths")
        calendar = CropCalendar(*stages, **kc)
    else:
        calendar = CropCalendar.maize(season.days, **kc)

    link = _build(transport.LinkModel, raw, "link", skip={"qos", "latency_s"})
    link = dataclasses.replace(link, latency_s=_per_protocol(
        raw, "link.latency_s", link.latency_s))

    energy = _section(raw, "energy", {"per_message_mwh", "idle_mwh_per_day"})
    energy_kwargs = {"idle_mwh_per_day": _typed(
        energy.get("idle_mwh_per_day", 0.0), float, "energy.idle_mwh_per_day")}
    if "per_message_mwh" in energy:
        energy_kwargs["energy_per_message_mwh"] = _per_protocol(
            raw, "energy.per_message_mwh")

    targets = _section(raw, "report_targets", _REPORT_TARGETS)
    return Scenario(
        name=_typed(raw.get("name", name_hint), str, "name"),
        seed=_typed(raw["seed"], int, "seed"),
        field_id=_typed(raw.get("field_id", "field-1"), str, "field_id"),
        season=season, profile=profile,
        soil_sensor=soil_sensor, air_noise_sigma=air_noise_sigma,
        thresholds=_build(Thresholds, raw, "thresholds"),
        calendar=calendar, link=link,
        qos=_typed(_section(raw, "link").get("qos", 0), int, "link.qos"),
        energy=transport.EnergyModel(**energy_kwargs),
        irrigation=_build(IrrigationPolicyParams, raw, "irrigation"),
        baseline=_build(BaselinePolicyParams, raw, "baseline"),
        economics=_build(EconomicParams, raw, "economics"),
        yield_model=_build(YieldModelParams, raw, "yield_model"),
        channel=_build(Channel, raw, "channel"),
        gateway=_build(GatewayConfig, raw, "gateway"),
        alerting=_build(AlertingParams, raw, "alerting"),
        report_targets={**_REPORT_TARGETS, **{
            k: _typed(v, float, f"report_targets.{k}")
            for k, v in targets.items()}},
    )


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    return parse_scenario(yamlfile.read(path), name_hint=Path(path).stem)


def default_scenario_path():
    """Path to the shipped default scenario (context-managed resource)."""
    return yamlfile.packaged(f"{DEFAULT_SCENARIO}.yaml")


def load_default_scenario() -> Scenario:
    with default_scenario_path() as path:
        return load_scenario(path)
