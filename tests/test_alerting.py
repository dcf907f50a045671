"""Alerting: bilingual rendering, dedup dispatch, the dispatch log."""

import csv
import hashlib
import io
import itertools
import json
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrisim import decision
from agrisim.alerting import (
    SENT,
    SUPPRESSED_DUPLICATE,
    AlertingParams,
    Dispatcher,
    GatewayConfig,
    MessageCatalog,
    MessageTemplate,
    RenderError,
    TemplateNotFound,
)
from agrisim.errors import ConfigurationError, InputError

CATALOG = MessageCatalog.default()
GOLDEN_EN = ("Soil moisture is 22%! You are advised to irrigate today "
             "to prevent yield loss.")


def make_dispatcher(locale="en", window=43_200.0, field_id="field-1"):
    return Dispatcher(CATALOG, GatewayConfig(), AlertingParams(locale, window),
                      field_id)


KIND = {name: k for k, name in enumerate(decision.ALERT_KINDS)}
HEAT, LOW = KIND[decision.HEAT], KIND[decision.MOISTURE_LOW]


def low_moisture(clock_s, moisture_pct=22.0):
    """The arguments of one MOISTURE_LOW ``dispatch_alert``."""
    return LOW, moisture_pct, 25.0, clock_s


def write_catalog(tmp_path, text):
    path = tmp_path / "messages.yaml"
    path.write_text(text)
    return path


class TestCatalog:
    def test_golden_english_irrigation_message(self):
        text = CATALOG.render("irrigate_low_moisture", "en",
                              {"moisture_pct": 22.0})
        assert text == GOLDEN_EN

    def test_integer_percent_formatting(self):
        text = CATALOG.render("irrigate_low_moisture", "en",
                              {"moisture_pct": 21.7})
        assert "22%" in text

    def test_every_template_has_both_locales(self):
        raw = yaml.safe_load(resources.files("agrisim").joinpath(
            "data/messages.yaml").read_text(encoding="utf-8"))
        assert raw
        for tid, entry in raw.items():
            assert sorted(entry) == ["en", "lg"]
            for locale in ("en", "lg"):
                assert CATALOG.template(tid, locale).locale == locale

    def test_luganda_renders_same_params(self):
        lg = CATALOG.render("irrigate_low_moisture", "lg",
                            {"moisture_pct": 22.0})
        assert "22%" in lg
        assert lg != GOLDEN_EN

    def test_missing_param_raises(self):
        with pytest.raises(RenderError):
            CATALOG.render("irrigate_low_moisture", "en", {})

    def test_unknown_template(self):
        with pytest.raises(TemplateNotFound):
            CATALOG.render("nope", "en", {})

    def test_params_are_the_text_placeholders(self):
        tpl = MessageTemplate("t", "en", "{b} then {a}, {b} again")
        assert tpl.params == ("b", "a")
        assert MessageTemplate("t", "en", "no placeholders").params == ()
        for text in ("unmatched {brace", 5):
            with pytest.raises(ConfigurationError, match="t/en"):
                MessageTemplate("t", "en", text)

    @pytest.mark.parametrize("placeholder", ["{x.y}", "{x[0]}", "{}", "{0}"])
    def test_placeholder_that_is_not_a_name_rejected(self, placeholder):
        with pytest.raises(ConfigurationError, match="t/en: placeholder"):
            MessageTemplate("t", "en", f"value {placeholder} now")

    @pytest.mark.parametrize("placeholder", [
        "{moisture_pct:.1f}", "{moisture_pct:{w}}", "{moisture_pct!r}"])
    def test_format_spec_or_conversion_rejected(self, placeholder):
        # render formats every parameter to a str itself, so a spec fails
        # there and a conversion quotes the str
        with pytest.raises(ConfigurationError, match="t/en: placeholder"):
            MessageTemplate("t", "en", f"Soil {placeholder}%")

    def test_empty_text_rejected(self):
        # a WhatsApp or SMS gateway refuses an empty message
        with pytest.raises(ConfigurationError, match="t/en: empty text"):
            MessageTemplate("t", "en", "")

    def test_locales_with_different_placeholders_rejected(self, tmp_path):
        path = write_catalog(tmp_path, """
t:
  en: "value {x}"
  lg: "value {y}"
""")
        with pytest.raises(ConfigurationError, match="template t"):
            MessageCatalog.from_file(path)

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "messages.yaml"
        path.write_bytes('t:\n  en: "café"\n'.encode("latin-1"))
        with pytest.raises(ConfigurationError, match="cannot parse"):
            MessageCatalog.from_file(path)

    @pytest.mark.parametrize("name", ["missing.yaml", "."],
                             ids=["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, name):
        # as load_scenario does: an OSError is a ConfigurationError
        with pytest.raises(ConfigurationError, match="cannot read"):
            MessageCatalog.from_file(tmp_path / name)

    def test_file_that_is_not_a_mapping_rejected(self, tmp_path):
        path = write_catalog(tmp_path, "- heat_alert\n- humidity_low\n")
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            MessageCatalog.from_file(path)

    def test_entry_without_locales_rejected(self, tmp_path):
        path = write_catalog(tmp_path, "t:\n  text: hello\n")
        with pytest.raises(ConfigurationError,
                           match=r"unknown keys in 't': \['text'\]"):
            MessageCatalog.from_file(path)

    def test_locale_without_text_rejected(self, tmp_path):
        path = write_catalog(tmp_path, "t:\n  en:\n  lg: hello\n")
        with pytest.raises(ConfigurationError, match=r"^t/en: expected str"):
            MessageCatalog.from_file(path)

    @pytest.mark.parametrize("text, key", [
        # a params list left over from before params were read off the text
        ("t:\n  params: [x]\n  en: '{x}'\n", "params"),
        # the nesting of the catalog's earlier format
        ("t:\n  locales:\n    en: '{x}'\n", "locales"),
        # a locale no scenario can alert in
        ("t:\n  en: '{x}'\n  fr: '{x}'\n", "fr"),
    ], ids=["params", "nested", "locale"])
    def test_unknown_key_rejected(self, tmp_path, text, key):
        path = write_catalog(tmp_path, text)
        with pytest.raises(ConfigurationError,
                           match=rf"unknown keys in 't': \['{key}'\]"):
            MessageCatalog.from_file(path)

    def test_default_is_loaded_once_and_renders_as_a_fresh_load(self):
        assert MessageCatalog.default() is MessageCatalog.default()
        with resources.as_file(resources.files("agrisim").joinpath(
                "data/messages.yaml")) as path:
            fresh = MessageCatalog.from_file(path)
        for tid, locale in (("heat_alert", "en"),
                            ("irrigate_low_moisture", "lg")):
            params = {name: 37.0
                      for name in fresh.template(tid, locale).params}
            assert MessageCatalog.default().render(tid, locale, params) == \
                fresh.render(tid, locale, params)

    def test_texts_keep_their_bytes(self):
        # every (template, locale) text, the Luganda drafts too: no run
        # digest covers the texts of a locale the shipped scenario skips
        texts = {f"{t.template_id}/{t.locale}": t.text
                 for t in CATALOG._templates.values()}
        assert len(texts) == 8
        digest = hashlib.sha256(json.dumps(texts, sort_keys=True).encode())
        assert digest.hexdigest() == ("1bc28f8c51f3bdb1bb590d76bf85f5cc"
                                      "3d1f62ae364f694f7e7bc636e53878fe")

    def test_locale_written_twice_rejected(self, tmp_path):
        path = write_catalog(tmp_path, 't:\n  en: "a {x}"\n  en: "b {x}"\n')
        with pytest.raises(ConfigurationError,
                           match=r"(?s)duplicate key 'en'.* line 3"):
            MessageCatalog.from_file(path)

    def test_keys_a_merge_brings_in_may_be_overridden(self, tmp_path):
        path = write_catalog(tmp_path, 't: &t\n  en: "a {x}"\n  lg: "b {x}"\n'
                                       'u:\n  <<: *t\n  lg: "c {x}"\n')
        catalog = MessageCatalog.from_file(path)
        assert catalog.template("u", "en").text == "a {x}"
        assert catalog.template("u", "lg").text == "c {x}"

    def test_rendering_is_pure(self):
        a = CATALOG.render("heat_alert", "en",
                           {"temp_c": 37.0, "threshold_c": 35.0})
        b = CATALOG.render("heat_alert", "en",
                           {"temp_c": 37.0, "threshold_c": 35.0})
        assert a == b
        assert "37.0" in a


class TestTemplateMapping:
    def test_all_alert_kinds_map(self):
        cases = [
            (decision.HEAT, "heat_alert"),
            (decision.HUMIDITY_LOW, "humidity_low"),
            (decision.HUMIDITY_HIGH, "humidity_high"),
            (decision.MOISTURE_LOW, "irrigate_low_moisture"),
        ]
        assert sorted(k for k, _ in cases) == sorted(decision.ALERT_KINDS)
        for locale in ("en", "lg"):
            d = make_dispatcher(locale=locale)
            for kind, expected in cases:
                # rendering raises RenderError unless every parameter is given
                d.dispatch_alert(KIND[kind], 1.0, 2.0)
                assert d.records.template_id[-1] == expected
                assert d.records.status[-1] == SENT

    def test_reading_and_threshold_reach_the_text(self):
        d = make_dispatcher()
        d.dispatch_alert(HEAT, 37.04, 35.0)
        d.dispatch_alert(KIND[decision.HUMIDITY_LOW], 24.6, 30.0)
        heat, low = d.records.text
        assert heat == CATALOG.render(
            "heat_alert", "en", {"temp_c": 37.04, "threshold_c": 35.0})
        assert "37.0 C" in heat and "35.0 C" in heat
        assert "25%" in low

    def test_unknown_kind_rejected(self):
        d = make_dispatcher()
        for kind in (-1, len(decision.ALERT_KINDS), 1.5):
            with pytest.raises(InputError):
                d.dispatch_alert(kind, 0.0, 0.0)
            with pytest.raises(InputError):
                d.dispatch(alert_columns([(LOW, 0.0, 0.0, 0),
                                          (kind, 0.0, 0.0, 0)]))
        empty = np.array([], dtype=np.float64)
        with pytest.raises(InputError):
            d.dispatch(decision.Alerts(empty, empty, empty,
                                       np.array([], dtype=np.int64)))
        # columns that are not 1-D and of one length
        kinds, times = np.array([LOW, HEAT]), np.array([0, 10])
        for alerts in (
                decision.Alerts(kinds, np.array([1.0]), np.array([1.0, 2.0]),
                                times),
                decision.Alerts(kinds.reshape(2, 1), np.array([1.0, 2.0]),
                                np.array([1.0, 2.0]), times),
                decision.Alerts(kinds, np.array([1.0, 2.0]),
                                np.array([1.0, 2.0, 3.0]), times)):
            with pytest.raises(InputError):
                d.dispatch(alerts)
        assert len(d.records) == 0


class TestDispatcher:
    def test_first_send_recorded(self):
        d = make_dispatcher()
        d.dispatch_alert(*low_moisture(0))
        assert d.records.status == [SENT]
        assert d.records.text == [GOLDEN_EN]
        assert d.records.timestamp_s == [0]
        assert d._last_sent == {"field-1:irrigate_low_moisture": 0}

    def test_duplicate_within_window_suppressed(self):
        d = make_dispatcher()
        d.dispatch_alert(*low_moisture(0))
        d.dispatch_alert(*low_moisture(3600, moisture_pct=21.0))
        assert d.records.status == [SENT, SUPPRESSED_DUPLICATE]
        assert d.records.timestamp_s == [0, 3600]

    def test_resend_after_window(self):
        d = make_dispatcher()
        d.dispatch_alert(*low_moisture(0))
        d.dispatch_alert(*low_moisture(43_200))
        assert d.records.status == [SENT, SENT]

    def test_different_templates_do_not_collide(self):
        d = make_dispatcher()
        d.dispatch_alert(*low_moisture(0))
        d.dispatch_alert(HEAT, 37.0, 35.0, 1)
        assert d.records.status == [SENT, SENT]

    def test_different_fields_do_not_collide(self):
        # the dedup key carries the dispatcher's field, so the logs of two
        # fields never share a key
        one, two = (make_dispatcher(field_id=f)
                    for f in ("field-1", "field-2"))
        one.dispatch_alert(*low_moisture(0))
        two.dispatch_alert(*low_moisture(1))
        assert one.records.status == two.records.status == [SENT]
        assert one.records.dedup_key == ["field-1:irrigate_low_moisture"]
        assert two.records.dedup_key == ["field-2:irrigate_low_moisture"]

    def test_unknown_gateway_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="carrier_pigeon"):
            GatewayConfig(kind="carrier_pigeon")

    def test_export_csv_row_count(self):
        d = make_dispatcher(locale="lg")
        d.dispatch_alert(*low_moisture(0))
        d.dispatch_alert(*low_moisture(60))
        buf = io.StringIO(newline="")
        assert d.export_csv(buf) == 2
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3  # header + 2 rows
        # gateway kind and locale are the dispatcher's, written on every row
        assert [line.split(",")[:5] for line in lines[1:]] == [
            ["0", "whatsapp_gateway", "irrigate_low_moisture", "lg", SENT],
            ["60", "whatsapp_gateway", "irrigate_low_moisture", "lg",
             SUPPRESSED_DUPLICATE]]

    @given(st.lists(st.integers(0, 10 * 86_400), min_size=1, max_size=60),
           st.floats(60.0, 2 * 86_400))
    @settings(max_examples=300, deadline=None)
    def test_at_most_one_send_per_window(self, clocks, window):
        # same key throughout: consecutive SENT timestamps must be >= window apart
        d = make_dispatcher(window=window)
        clocks = sorted(clocks)
        d.dispatch(alert_columns([(LOW, 22.0, 25.0, t) for t in clocks]))
        sent_times = [t for t, status in zip(clocks, d.records.status)
                      if status == SENT]
        assert sent_times  # the first attempt always sends
        for a, b in zip(sent_times, sent_times[1:]):
            assert b - a >= window

    def test_alerts_out_of_time_order_rejected(self):
        d = make_dispatcher()
        with pytest.raises(InputError, match="time order"):
            d.dispatch(alert_columns([(LOW, 22.0, 25.0, 60),
                                      (HEAT, 37.0, 35.0, 0)]))
        assert len(d.records) == 0 and d._last_sent == {}

    @pytest.mark.parametrize("times", [
        [0.0, 60.0], [0, 60.5], [float("nan"), 0.0],
        np.array([0, 2**63], np.uint64), [0, 2**64]],
        ids=["float", "fraction", "nan", "uint64", "object"])
    def test_times_not_whole_int64_seconds_rejected(self, times):
        d = make_dispatcher()
        d.dispatch_alert(*low_moisture(0))
        with pytest.raises(InputError, match="whole seconds|int64"):
            d.dispatch(decision.Alerts(np.array([LOW, HEAT]),
                                       np.array([22.0, 37.0]),
                                       np.array([25.0, 35.0]),
                                       np.asarray(times)))
        with pytest.raises(InputError, match="whole seconds|int64"):
            d.dispatch_alert(HEAT, 37.0, 35.0, times[-1])
        assert d.records.status == [SENT]
        assert d._last_sent == {"field-1:irrigate_low_moisture": 0}

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -1.0,
                                        -1, 2**1024],
                             ids=["nan", "inf", "-1.0", "-1", "2**1024"])
    def test_window_finite_and_non_negative(self, window):
        with pytest.raises(ConfigurationError, match="dedup_window_s"):
            make_dispatcher(window=window)

    def test_season_alerts_are_in_time_order(self, default_run):
        # the kernel's alert columns pass the column call's order check
        alerts = default_run.system_arm.alerts
        times = alerts.timestamp_s
        assert len(alerts) and np.all(times[1:] >= times[:-1])
        assert alerts.kind.dtype.kind == "i"
        assert alerts.observed.dtype == alerts.threshold.dtype == np.float64
        assert times.dtype == np.int64

    def test_renders_once_per_text_and_visits_only_sends(self, default_run,
                                                         monkeypatch):
        # seed 42 of the shipped scenario: 828 MOISTURE_LOW alerts, 4 texts,
        # 12 of them sent
        alerts = default_run.system_arm.alerts
        renders = []
        real_render = MessageCatalog.render
        monkeypatch.setattr(MessageCatalog, "render", lambda self, *a:
                            renders.append(a) or real_render(self, *a))
        d = make_dispatcher()
        d.dispatch(alerts)
        records = d.records
        assert len(records) == len(alerts) == 828
        assert len(renders) == len(set(records.text)) == 4
        assert records.status.count(SENT) == 12


def alert_columns(rows):
    """``decision.Alerts`` from (kind index, observed, threshold, time)
    rows."""
    kind, observed, threshold, times = zip(*rows)
    return decision.Alerts(np.array(kind), np.array(observed, dtype=float),
                           np.array(threshold, dtype=float),
                           np.array(times))


# alert kind -> (template, the parameter that carries the reading), as the
# catalog documents it
ORACLE_TEMPLATES = {
    decision.HEAT: ("heat_alert", "temp_c"),
    decision.HUMIDITY_LOW: ("humidity_low", "humidity_pct"),
    decision.HUMIDITY_HIGH: ("humidity_high", "humidity_pct"),
    decision.MOISTURE_LOW: ("irrigate_low_moisture", "moisture_pct"),
}


class OracleDispatcher:
    """The per-alert dispatcher that the column path replaced: one render
    and one dedup test per alert, in alert order."""

    def __init__(self, locale, window, field_id="field-1"):
        self.locale, self.window = locale, window
        self.field_id = field_id
        self.rows = []
        self._last_sent = {}

    def dispatch_alert(self, kind, observed, threshold, clock_s):
        template_id, reading = ORACLE_TEMPLATES[kind]
        text = CATALOG.render(template_id, self.locale, {
            reading: observed, "threshold_c": threshold})
        key = f"{self.field_id}:{template_id}"
        status = SENT
        last = self._last_sent.get(key)
        if last is not None and clock_s - last < self.window:
            status = SUPPRESSED_DUPLICATE
        else:
            self._last_sent[key] = clock_s
        self.rows.append((clock_s, template_id, text, status, key))


def assert_matches_oracle(rows, window, locale, split):
    """Dispatch ``rows`` (kind name, observed, threshold, time) in two
    column calls, split at ``split``, and one at a time through the oracle;
    the records and the last sends must be the same."""
    oracle = OracleDispatcher(locale, window)
    for row in rows:
        oracle.dispatch_alert(*row)
    d = make_dispatcher(locale=locale, window=window)
    for part in (rows[:split], rows[split:]):
        if part:
            d.dispatch(alert_columns([
                (decision.ALERT_KINDS.index(kind), *rest)
                for kind, *rest in part]))
    r = d.records
    assert list(zip(r.timestamp_s, r.template_id, r.text, r.status,
                    r.dedup_key)) == oracle.rows
    assert list(map(type, r.timestamp_s)) == [type(row[-1]) for row in rows]
    assert d._last_sent == oracle._last_sent


# a reading on a rounding boundary of the one-decimal and integer formats,
# or anywhere in range
READINGS = st.one_of(st.integers(-200, 2000).map(lambda k: k / 20),
                     st.floats(-50.0, 150.0))


@st.composite
def alert_rows(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.integers(0, 30_000), min_size=n, max_size=n))
    return [(draw(st.sampled_from(decision.ALERT_KINDS)), draw(READINGS),
             draw(READINGS), t)
            for t in itertools.accumulate(gaps)]


@given(rows=alert_rows(),
       window=st.one_of(st.floats(0.5, 50_000.0), st.just(1e300),
                        st.integers(1, 50_000).map(float)),
       locale=st.sampled_from(["en", "lg"]), split=st.integers(0, 40))
@settings(max_examples=300, deadline=None)
@example(rows=[(kind, 24.5, 25.0, t) for t in (0, 60, 60, 90_000)
               for kind in decision.ALERT_KINDS],
         window=43_200.5, locale="lg", split=6)
@example(rows=[(decision.HEAT, 36.0, 35.0, t)
               for t in (-2**63, -1, 0, 2**63 - 1)],
         window=2.0**63, locale="en", split=2)
@example(rows=[(decision.HEAT, 36.0, 35.0, t) for t in (5, 5, 6)],
         window=1.0, locale="en", split=1)
def test_column_dispatch_matches_per_alert_oracle(rows, window, locale,
                                                  split):
    # the int64-range example's differences wrap around in int64, and the
    # one-second window suppresses the second of two alerts at one time and
    # sends an alert one window after the first
    assert_matches_oracle(rows, window, locale, split)


def test_season_dispatch_matches_per_alert_oracle(default_run):
    alerts = default_run.system_arm.alerts
    rows = list(zip([decision.ALERT_KINDS[k] for k in alerts.kind.tolist()],
                    alerts.observed.tolist(), alerts.threshold.tolist(),
                    alerts.timestamp_s.tolist()))
    assert_matches_oracle(rows, 43_200.0, "en", len(rows) // 2)


class TestLogBytes:
    """``export_csv`` writes the bytes ``csv.writer`` would, with an empty
    ``detail`` field ending each row."""

    @staticmethod
    def csv_writer_bytes(d):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["timestamp_s", "gateway", "template_id", "locale",
                         "status", "dedup_key", "text", "detail"])
        r = d.records
        for row in zip(r.timestamp_s, r.template_id, r.text, r.status,
                       r.dedup_key):
            t, tid, text, status, key = row
            writer.writerow([t, d.gateway.kind, tid, d.alerting.locale,
                             status, key, text, ""])
        return buf.getvalue().encode()

    @pytest.mark.parametrize("text", [
        'a, b', 'say "hi"', 'line\rbreak', 'line\nbreak', 'crlf\r\nend',
        '"", ,\n', "plain {moisture_pct}%"])
    def test_quoted_texts_and_details(self, text):
        tpl = MessageTemplate("irrigate_low_moisture", "en",
                              text + " {moisture_pct}")
        catalog = MessageCatalog({(tpl.template_id, tpl.locale): tpl})
        d = Dispatcher(catalog, GatewayConfig(),
                       AlertingParams(dedup_window_s=100.0), "field-1")
        d.dispatch(alert_columns([(LOW, 20.0, 25.0, t)
                                  for t in (0, 10, 200, 400)]))
        d.dispatch(alert_columns([(LOW, 21.0, 25.0, 1000)]))
        assert d.records.status == [SENT, SUPPRESSED_DUPLICATE, SENT, SENT,
                                    SENT]
        buf = io.StringIO(newline="")
        assert d.export_csv(buf) == 5
        assert buf.getvalue().encode() == self.csv_writer_bytes(d)

    def test_log_larger_than_one_slice(self):
        d = make_dispatcher(window=50.0)
        d.dispatch(alert_columns([(k % 4, 20.0 + k % 7, 25.0, 10 * k)
                                  for k in range(5000)]))
        buf = io.StringIO(newline="")
        assert d.export_csv(buf) == 5000
        assert buf.getvalue().encode() == self.csv_writer_bytes(d)
