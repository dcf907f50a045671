"""Scenario loading: strict validation, defaults, round trips."""

import copy
import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrisim import pipeline
from agrisim.alerting import AlertingParams
from agrisim.decision import ALERT_KINDS, HEAT
from agrisim.errors import ConfigurationError, InputError
from agrisim.metrics import REPORT_LAYOUT
from agrisim.transport import PUBSUB, REQRESP
from agrisim.scenario import (
    DEFAULT_SCENARIO,
    default_scenario_path,
    load_default_scenario,
    load_scenario,
    parse_scenario,
)

_TARGETS = {name: target for name, _, _, target in REPORT_LAYOUT}


def default_raw():
    with default_scenario_path() as path:
        with open(path) as fh:
            return yaml.safe_load(fh)


def _leaves(node, prefix=""):
    """Dotted paths of every scalar or list value in a scenario mapping."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _leaves(value, path + ".")
        else:
            yield path


def _nodes(node, prefix=""):
    """Dotted paths of the mapping itself ("") and every mapping inside it."""
    yield prefix.rstrip(".")
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _nodes(value, f"{prefix}{key}.")


def _get(raw, path):
    for key in filter(None, path.split(".")):
        raw = raw[key]
    return raw


def _set(raw, path, value):
    parent, _, key = path.rpartition(".")
    _get(raw, parent)[key] = value


class TestDefaultScenario:
    def test_loads_cleanly(self):
        scenario = load_default_scenario()
        assert scenario.name == DEFAULT_SCENARIO
        assert scenario.seed == 42
        assert scenario.season.days == 60
        assert scenario.qos in (0, 1)
        assert scenario.calendar.season_total_days == scenario.season.days

    def test_thresholds_match_report_targets_style(self):
        scenario = load_default_scenario()
        assert scenario.thresholds.soil_moisture_trigger_pct == 25.0
        assert scenario.thresholds.temp_alert_c == 35.0
        assert set(scenario.report_targets) == {
            "Temperature", "Humidity", "Soil Moisture", "Data Transmission",
            "Water Usage", "Crop Yield", "Energy Efficiency"}

    def test_latency_constants(self):
        scenario = load_default_scenario()
        assert scenario.link.latency_s == {PUBSUB: 3.0, REQRESP: 10.0}


class TestStrictValidation:
    def test_unknown_top_level_key(self):
        raw = default_raw()
        raw["surprise"] = 1
        with pytest.raises(ConfigurationError,
                           match=r"unknown keys in 'scenario': \['surprise'"):
            parse_scenario(raw)

    def test_unknown_nested_key(self):
        raw = default_raw()
        raw["thresholds"]["soil_moisture_trigger"] = 25.0  # typo'd key
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_scenario(raw)

    def test_missing_seed(self):
        raw = default_raw()
        del raw["seed"]
        with pytest.raises(ConfigurationError, match="seed"):
            parse_scenario(raw)

    def test_reversed_humidity_range(self):
        raw = default_raw()
        raw["thresholds"]["humidity_range_pct"] = [60.0, 30.0]
        with pytest.raises(ConfigurationError):
            parse_scenario(raw)

    def test_reversed_temp_envelope(self):
        raw = default_raw()
        raw["season"]["temp_envelope_c"] = [30.0, 15.0]
        with pytest.raises(ConfigurationError):
            parse_scenario(raw)

    def test_zero_width_temp_envelope(self):
        # no diurnal range, so zero ET0: the run would fail in the yield model
        raw = default_raw()
        raw["season"]["temp_envelope_c"] = [20.0, 20.0]
        with pytest.raises(ConfigurationError, match="temperature envelope"):
            parse_scenario(raw)

    def test_zero_width_humidity_envelope_runs(self):
        raw = default_raw()
        raw["season"]["rh_envelope_pct"] = [45.0, 45.0]
        output = pipeline.run_season(parse_scenario(raw))
        assert output.observations["Humidity"] == pytest.approx(45.0, abs=1.0)

    def test_stage_days_must_sum_to_season(self):
        raw = default_raw()
        raw["crop_calendar"]["stage_days"] = [10, 20, 20, 5]  # sums to 55
        with pytest.raises(ConfigurationError, match="stage_days"):
            parse_scenario(raw)

    def test_stage_days_must_have_four_entries(self):
        raw = default_raw()
        raw["crop_calendar"]["stage_days"] = [30, 30]
        with pytest.raises(ConfigurationError, match="four"):
            parse_scenario(raw)

    def test_explicit_stage_days_accepted(self):
        raw = default_raw()
        raw["crop_calendar"]["stage_days"] = [12, 21, 24, 3]
        scenario = parse_scenario(raw)
        assert scenario.calendar.initial_days == 12
        assert scenario.calendar.season_total_days == 60

    def test_invalid_qos(self):
        raw = default_raw()
        raw["link"]["qos"] = 2
        with pytest.raises(ConfigurationError, match="qos"):
            parse_scenario(raw)

    def test_interval_must_divide_a_day(self):
        raw = default_raw()
        raw["sensors"]["soil"]["sample_interval_s"] = 7
        with pytest.raises(ConfigurationError, match="dividing 86400"):
            parse_scenario(raw)

    def test_air_interval_is_an_unknown_key(self):
        # both sensors sample on the soil sensor's interval
        raw = default_raw()
        raw["sensors"]["air"]["sample_interval_s"] = 300
        with pytest.raises(ConfigurationError,
                           match=r"unknown keys in 'sensors\.air': "
                                 r"\['sample_interval_s'\]"):
            parse_scenario(raw)

    def test_soil_interval_sets_both_sensors(self):
        raw = default_raw()
        raw["sensors"]["soil"]["sample_interval_s"] = 600
        output = pipeline.run_season(parse_scenario(raw))
        samples = output.system_arm.samples
        assert len(samples) == 60 * 144
        assert np.all(np.diff(samples.timestamp_s) == 600)
        assert output.transport_stats[PUBSUB].attempted == 60 * 144

    def test_polar_latitude_rejected(self):
        raw = default_raw()
        raw["season"]["latitude_deg"] = 80.0
        with pytest.raises(ConfigurationError, match="latitude"):
            parse_scenario(raw)

    @pytest.mark.parametrize("key, value", [
        ("rain_probability", 0.9), ("rain_mean_mm", 20.0)])
    def test_rain_in_a_dry_season_rejected(self, key, value):
        # a dry season draws no rain, so the key would change nothing
        raw = default_raw()
        assert raw["season"]["dry_season"] is True
        raw["season"][key] = value
        with pytest.raises(ConfigurationError, match=key):
            parse_scenario(raw)
        raw["season"]["dry_season"] = False
        assert getattr(parse_scenario(raw).season, key) == value

    def test_zero_water_and_labor_cost_rejected(self):
        raw = default_raw()
        raw["economics"].update(water_cost_ugx_per_l=0.0,
                                labor_cost_ugx_per_event=0.0)
        with pytest.raises(ConfigurationError, match="both 0"):
            parse_scenario(raw)

    @pytest.mark.parametrize("depth_cm", [0, -5, 35, 999, 15])
    def test_probe_depth_outside_root_zone_rejected(self, depth_cm):
        # the bucket has one root zone, so a probe depth could change no
        # reading: depth_cm is an unknown key at any depth, outside the
        # shipped 0.34 m root zone or inside it
        raw = default_raw()
        raw["sensors"]["soil"]["depth_cm"] = depth_cm
        with pytest.raises(ConfigurationError,
                           match=r"unknown keys in 'sensors\.soil': "
                                 r"\['depth_cm'\]"):
            parse_scenario(raw)

    @pytest.mark.parametrize("sigma", [-0.1, "0.2"])
    def test_air_noise_sigma_must_be_a_non_negative_number(self, sigma):
        raw = default_raw()
        raw["sensors"]["air"]["noise_sigma"] = sigma
        with pytest.raises(ConfigurationError, match="air.noise_sigma"):
            parse_scenario(raw)

    @pytest.mark.parametrize("energy, match", [
        ({"per_message_mwh": {"pubsub": 0.0, "reqresp": 0.0},
          "idle_mwh_per_day": 0.0}, "both 0"),
        ({"per_message_mwh": {"pubsub": 0.05, "reqresp": 0.0},
          "idle_mwh_per_day": 0.0}, "REQRESP per-message energy"),
        ({"per_message_mwh": {"pubsub": 0.05}}, "missing keys"),
    ])
    def test_energy_that_a_session_cannot_spend_rejected(self, energy, match):
        raw = default_raw()
        raw["energy"] = energy
        with pytest.raises(ConfigurationError, match=match):
            parse_scenario(raw)

    # the loader rejects non-finite floats; built in code, the params must
    # reject NaN (which fails every comparison) and infinity themselves
    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0])
    def test_dedup_window_positive_and_finite(self, window):
        with pytest.raises(ConfigurationError, match="dedup_window_s"):
            AlertingParams(dedup_window_s=window)

    @pytest.mark.parametrize("part, key, value", [
        ("soil_sensor", "noise_sigma", math.nan),
        ("profile", "root_depth_m", math.nan),
        ("irrigation", "cap_mm", math.nan),
        ("irrigation", "initial_depletion_mm", math.nan),
        ("baseline", "depth_mm", math.nan),
        ("yield_model", "ky", math.nan),
        ("yield_model", "max_yield_kg_per_acre", math.nan),
        ("economics", "maize_price_ugx_per_kg", math.nan),
        ("economics", "water_cost_ugx_per_l", math.nan),
        ("economics", "labor_cost_ugx_per_event", math.nan),
        ("thresholds", "humidity_range_pct", (math.nan, 60.0)),
        ("thresholds", "humidity_range_pct", (30.0, math.nan)),
        ("thresholds", "temp_alert_c", math.nan),
        ("season", "temp_envelope_c", (math.nan, 30.0)),
        ("season", "temp_envelope_c", (15.0, math.nan)),
        (None, "air_noise_sigma", math.nan),
        (None, "air_noise_sigma", -0.5),
        (None, "report_targets", {"Temperature": math.nan}),
    ])
    def test_config_built_in_code_rejects_nan(self, default_scenario, part,
                                              key, value):
        # the air noise's sign rule belongs to Scenario, not to the loader
        config = default_scenario if part is None else getattr(
            default_scenario, part)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, **{key: value})

    # rules the loader once held alone, and infinity, which passes the range
    # rules that NaN fails: each part builds, and the scenario does not
    @pytest.mark.parametrize("part, key, value", [
        (None, "qos", 2),
        ("season", "days", 90),  # the 60-day calendar falls short
        ("season", "days", 30),  # half the calendar would go unread
        (None, "report_targets", {k: v for k, v in _TARGETS.items()
                                  if k != "Crop Yield"}),
        (None, "report_targets", {**_TARGETS, "Rainfall": 1.0}),
        (None, "report_targets", {**_TARGETS, "Temperature": math.inf}),
        (None, "air_noise_sigma", math.inf),
        ("baseline", "depth_mm", math.inf),
        ("irrigation", "cap_mm", math.inf),
        ("yield_model", "ky", math.inf),
        ("yield_model", "max_yield_kg_per_acre", math.inf),
        ("economics", "water_cost_ugx_per_l", math.inf),
        ("energy", "idle_mwh_per_day", math.inf),
        ("energy", "energy_per_message_mwh", {PUBSUB: math.inf,
                                              REQRESP: 0.2}),
        ("link", "latency_s", {PUBSUB: 3.0, REQRESP: math.inf}),
        ("soil_sensor", "noise_sigma", math.inf),
        ("profile", "root_depth_m", math.inf),
        ("thresholds", "temp_alert_c", -math.inf),
        ("season", "temp_envelope_c", (-math.inf, 30.0)),
    ])
    def test_scenario_built_in_code_checked_at_construction(
            self, default_scenario, part, key, value):
        changes = {key: value} if part is None else {part: dataclasses.replace(
            getattr(default_scenario, part), **{key: value})}
        with pytest.raises(ConfigurationError):
            dataclasses.replace(default_scenario, **changes)

    def test_invalid_locale(self):
        raw = default_raw()
        raw["alerting"]["locale"] = "fr"
        with pytest.raises(ConfigurationError, match="locale"):
            parse_scenario(raw)

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigurationError, match="mapping"):
            load_scenario(path)

    def test_key_written_twice_rejected(self, tmp_path):
        # the YAML parser keeps a repeated key's last value, so the season
        # below would silently run 60 days
        with default_scenario_path() as path:
            text = path.read_text(encoding="utf-8")
        assert text.count("\n  days: 60\n") == 1
        path = tmp_path / "twice.yaml"
        path.write_text(text.replace("\n  days: 60\n",
                                     "\n  days: 5\n  days: 60\n"))
        with pytest.raises(ConfigurationError, match=r"(?s)twice\.yaml.*"
                           r"duplicate key 'days'.* line 15"):
            load_scenario(path)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [unclosed\n")
        with pytest.raises(ConfigurationError, match="cannot parse"):
            load_scenario(path)

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        # PyYAML decodes the bytes itself, whatever the locale's encoding
        raw = default_raw()
        raw["field_id"] = "café-1"
        path = tmp_path / "latin1.yaml"
        path.write_bytes(yaml.safe_dump(raw, allow_unicode=True)
                         .encode("latin-1"))
        with pytest.raises(ConfigurationError, match="cannot parse"):
            load_scenario(path)


class TestDeterministicParsing:
    def test_same_raw_same_scenario(self):
        raw = default_raw()
        assert parse_scenario(copy.deepcopy(raw)) == parse_scenario(raw)

    def test_parsing_leaves_the_mapping_unchanged(self):
        raw = default_raw()
        raw["link"]["qos"] = 1
        before = copy.deepcopy(raw)
        assert parse_scenario(raw).qos == 1
        assert parse_scenario(raw).qos == 1
        assert raw == before

    def test_file_and_default_loader_agree(self):
        with default_scenario_path() as path:
            from_file = load_scenario(path)
        assert from_file == load_default_scenario()


class TestIntegerFloats:
    """A YAML int in a float field loads as the equal float, so it cannot
    change a byte that formats the value."""

    def test_int_depth_writes_the_shipped_manifest(self, default_run,
                                                   tmp_path):
        raw = default_raw()
        assert raw["baseline"]["depth_mm"] == 48.0
        raw["baseline"]["depth_mm"] = 48
        scenario = parse_scenario(raw)
        assert type(scenario.baseline.depth_mm) is float
        pipeline.run_season(scenario, out_dir=tmp_path)
        assert (tmp_path / pipeline.MANIFEST_NAME).read_bytes() == \
            (default_run.out_dir / pipeline.MANIFEST_NAME).read_bytes()

    def test_int_threshold_reaches_alerts_as_a_float(self):
        raw = default_raw()
        raw["thresholds"]["temp_alert_c"] = 30  # 35 fires no heat alert
        alerts = pipeline.run_season(parse_scenario(raw)).system_arm.alerts
        heat = alerts.threshold[alerts.kind == ALERT_KINDS.index(HEAT)]
        assert heat.size
        assert heat.dtype == np.float64 and np.all(heat == 30.0)


# Malformed values reproduced on the shipped mapping, grouped by how the
# loader used to handle them; each must now fail at load time and name its
# dotted key.
MALFORMED = [
    # escaped as a raw TypeError/ValueError/AttributeError/IndexError
    ("season.days", "60"),
    ("link.latency_s", 3.0),
    ("thresholds.humidity_range_pct", [30.0]),
    ("crop_calendar.stage_days", "abcd"),
    ("seed", "x"),
    ("season.temp_envelope_c", 15.0),
    ("season.rh_envelope_pct", [30.0]),
    ("soil_profile.theta_sat", "0.474"),
    ("energy.per_message_mwh.pubsub", "x"),
    ("gateway.kind", 5),
    ("report_targets.Temperature", "hot"),
    ("irrigation.cap_mm", None),
    ("sensors.soil.sample_interval_s", "300"),
    # loaded, then failed mid-run
    ("season.days", 8.5),
    ("season.temp_envelope_c", [15.0, 30.0, 45.0]),
    ("channel.min_update_interval_s", "15"),
    # loaded and ran with another meaning
    ("seed", 1.5),
    ("season.dry_season", "no"),
    ("link.qos", True),
    ("name", 5),
    ("channel.write_key", 5),
    ("link.latency_s", {"pubsub": 3.0, "reqreps": 12.0}),
    ("crop_calendar.stage_days", [15.0, 15, 15, 15]),
    ("baseline.interval_days", 4.5),
    ("link.max_retries", 2.5),
    # loaded, then failed mid-run: non-finite values and a negative seed
    ("seed", -1),
    ("baseline.depth_mm", math.nan),
    ("season.temp_envelope_c", [15.0, math.inf]),
    # loaded, then overflowed mid-run: an int no float can hold
    pytest.param("baseline.depth_mm", 2**1024,
                 id="baseline.depth_mm-2**1024"),
]


@pytest.mark.parametrize("path, value", MALFORMED)
def test_malformed_value_names_its_key(path, value):
    raw = default_raw()
    _set(raw, path, value)
    with pytest.raises(ConfigurationError, match=path.replace(".", r"\.")):
        parse_scenario(raw)


@pytest.mark.parametrize("path, value, match", [
    ("season.rain_probability", -0.5, "rain_probability"),
    ("season.rain_mean_mm", -1.0, "rain_mean_mm"),
    ("sensors.soil.water_counts", 3500.0, "water_counts < air_counts"),
    ("economics.maize_price_ugx_per_kg", -1.0, "economic parameters"),
    ("irrigation.initial_depletion_mm", 500.0,
     r"irrigation\.initial_depletion_mm .*TAW 48\.6"),
    ("report_targets.Temperature", 0.0, r"report_targets\.Temperature"),
    ("channel.min_update_interval_s", -5.0, "min_update_interval_s"),
])
def test_out_of_range_value_rejected(path, value, match):
    raw = default_raw()
    raw["season"]["dry_season"] = False
    _set(raw, path, value)
    with pytest.raises(ConfigurationError, match=match):
        parse_scenario(raw)


SHIPPED = default_raw()
_BAD_VALUES = [None, math.nan, math.inf, -math.inf, True, False, 0, -1, -0.5,
               1.5, 10**6, "x", "12", [], [1.0], [1.0, 2.0, 3.0],
               [1, "a"], {}, {"pubsub": 1.0}]
# non-string keys too: beside a section's string keys they used to escape
# as a TypeError from sorting the unknown keys
_ADDED_KEYS = ["surprise", "rain_probability", "rain_mean_mm", "stage_days",
               "qos", "depth_cm", 1, None, True]


@settings(deadline=None, max_examples=1000)
@given(op=st.sampled_from(["replace", "delete", "add"]),
       path=st.sampled_from(sorted({*_leaves(SHIPPED), *_nodes(SHIPPED)} - {""})),
       node=st.sampled_from(sorted(_nodes(SHIPPED))),
       keys=st.lists(st.sampled_from(_ADDED_KEYS), min_size=1, max_size=2),
       value=st.sampled_from(_BAD_VALUES))
@example(op="add", path="seed", node="season", keys=[1, "bogus"], value=3)
def test_mutated_mapping_loads_or_raises_configuration_error(
        op, path, node, keys, value):
    raw = copy.deepcopy(SHIPPED)
    if op == "replace":
        _set(raw, path, value)
    elif op == "delete":
        parent, _, last = path.rpartition(".")
        del _get(raw, parent)[last]
    else:
        for key in keys:
            _get(raw, node)[key] = value
    before = copy.deepcopy(raw)
    try:
        parse_scenario(raw)
    except ConfigurationError:
        pass
    assert raw == before


def _nudged(value):
    """A small in-range change of a scenario value of any YAML type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.001 * max(1.0, abs(value))
    if isinstance(value, str):
        return value + "x"
    return [_nudged(value[0]), *value[1:]]


# explicit edits for the leaves that a small nudge leaves without effect,
# because they act only past a threshold or under another leaf's value, or
# that it turns into a name the loader rejects; the mapping in a leaf's
# CONTEXT is applied to both runs that are compared
EDITS = {
    "alerting.locale": "lg",
    "gateway.kind": "sms",
    "channel.min_update_interval_s": 600.0,  # past the 300 s sample interval
    "link.max_retries": 1,
    "thresholds.humidity_range_pct": [40.0, 50.0],
    "thresholds.temp_alert_c": 30.0,  # 35 fires no heat alert
}
CONTEXT = {"link.max_retries": {"link.qos": 1}}  # only QoS 1 retries
# keys that shipped scenarios carried until nothing read them: the gateway
# request that wrapped each alert, the probe depth, the ADC range (a count
# past air_counts reads 0% at any range) and the air sensor's interval (it
# could only equal the soil sensor's)
RETIRED_KEYS = {"gateway.api_key": "424242",
                "gateway.endpoint": "https://gateway.example/whatsapp.php",
                "gateway.phone": "+256700000001",
                "sensors.air.sample_interval_s": 300,
                "sensors.soil.adc_bits": 12,
                "sensors.soil.depth_cm": 15}
# keys that no output reads yet, with why; each must leave the manifest as
# it is, so a key that starts to reach an output fails until it leaves here
UNREAD_KEYS = {
    "channel.channel_id": "one channel per run: the id is only a dict key",
    "channel.write_key": "the run hands the channel its own write key",
}


def _manifest(raw, out_dir) -> bytes:
    pipeline.run_season(parse_scenario(raw), out_dir=out_dir)
    return (out_dir / pipeline.MANIFEST_NAME).read_bytes()


@pytest.fixture(scope="module")
def context_manifests(tmp_path_factory):
    """The manifest of the shipped mapping under each CONTEXT, by leaf."""
    manifests = {}
    for path, context in [(None, {}), *CONTEXT.items()]:
        raw = copy.deepcopy(SHIPPED)
        for key, value in context.items():
            _set(raw, key, value)
        manifests[path] = _manifest(raw, tmp_path_factory.mktemp("context"))
    return manifests


@pytest.mark.parametrize("path", sorted({*_leaves(SHIPPED), *RETIRED_KEYS}))
def test_every_shipped_key_changes_the_scenario_or_is_rejected(
        path, context_manifests, tmp_path):
    """Editing one leaf of the shipped mapping changes the run's manifest,
    or the mapping no longer loads; only an UNREAD_KEYS leaf keeps it."""
    raw = copy.deepcopy(SHIPPED)
    if path in RETIRED_KEYS:
        _set(raw, path, RETIRED_KEYS[path])
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_scenario(raw)
        return
    for key, value in CONTEXT.get(path, {}).items():
        _set(raw, key, value)
    _set(raw, path, EDITS.get(path, _nudged(_get(raw, path))))
    try:
        manifest = _manifest(raw, tmp_path)
    except ConfigurationError:
        assert path not in UNREAD_KEYS
        return
    changed = manifest != context_manifests[path if path in CONTEXT
                                            else None]
    assert changed != (path in UNREAD_KEYS), UNREAD_KEYS.get(path)


def _scaled(value, how):
    """``value`` times 0, 1/2 (``// 2`` for an int), 2 or -1, elementwise
    for a list."""
    if isinstance(value, list):
        return [_scaled(v, how) for v in value]
    if how == "half":
        return value // 2 if isinstance(value, int) else value / 2
    return {"zero": 0, "double": 2, "negated": -1}[how] * value


def _single_leaf_edits():
    """Each numeric leaf of the shipped mapping times 0, 1/2, 2 and -1, each
    bool flipped, and each list halved, doubled and negated."""
    for path in sorted(_leaves(SHIPPED)):
        value = _get(SHIPPED, path)
        if isinstance(value, bool):
            yield pytest.param(path, not value, id=f"{path}-flipped")
            continue
        if isinstance(value, list):
            hows = ("half", "double", "negated")
        elif isinstance(value, (int, float)):
            hows = ("zero", "half", "double", "negated")
        else:
            continue
        for how in hows:
            yield pytest.param(path, _scaled(value, how), id=f"{path}-{how}")


def _loads_then_fails(path, value, message):
    return pytest.param(
        path, value, id=f"{path}-{value}", marks=pytest.mark.xfail(
            strict=True, raises=InputError,
            reason=f"ROADMAP item 5: loads, then fails mid-run: {message}"))


@pytest.mark.parametrize("path, value", [
    *_single_leaf_edits(),
    _loads_then_fails("yield_model.ky", 7.0,
                      "baseline yield must be positive"),
    _loads_then_fails("soil_profile.root_depth_m", 0.034,
                      "baseline yield must be positive"),
    _loads_then_fails("season.temp_envelope_c", [-40.0, -20.0],
                      "ETm must be positive"),
])
def test_single_leaf_edit_that_loads_also_runs(path, value):
    """An edited shipped mapping either fails at load with
    ``ConfigurationError`` or runs a whole season in memory (ROADMAP item 5).
    The edits are fixed, and kept apart from the hypothesis test above,
    because that one draws values such as ``10**6`` that a loaded season
    would take as a million days."""
    raw = copy.deepcopy(SHIPPED)
    _set(raw, path, value)
    try:
        scenario = parse_scenario(raw)
    except ConfigurationError:
        return
    pipeline.run_season(scenario)
