"""Alerting: bilingual rendering, request-line encoding, dedup dispatch."""

import urllib.parse
from importlib import resources

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from agrisim import decision
from agrisim.alerting import (
    FAILED,
    SENT,
    SUPPRESSED_DUPLICATE,
    Dispatcher,
    GatewayConfig,
    MessageCatalog,
    MessageTemplate,
    RecordingGatewayClient,
    RenderError,
    TemplateNotFound,
    build_gateway_request,
)
from agrisim.errors import ConfigurationError, InputError

CATALOG = MessageCatalog.default()
GOLDEN_EN = ("Soil moisture is 22%! You are advised to irrigate today "
             "to prevent yield loss.")


class FailingGatewayClient:
    """Gateway client that always fails, for failure-path tests."""

    def __init__(self, reason: str = "gateway unreachable"):
        self.reason = reason

    def send(self, request_line: str) -> None:
        raise ConnectionError(self.reason)


def make_dispatcher(client=None, locale="en", window=43_200.0,
                    field_id="field-1"):
    return Dispatcher(CATALOG, GatewayConfig(),
                      client if client is not None else RecordingGatewayClient(),
                      locale=locale, dedup_window_s=window, field_id=field_id)


def low_moisture(clock_s, moisture_pct=22.0):
    return decision.Alert(decision.MOISTURE_LOW, moisture_pct, 25.0, clock_s)


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
            assert sorted(entry["locales"]) == ["en", "lg"]
            for locale in ("en", "lg"):
                assert CATALOG.template(tid, locale).locale == locale

    def test_luganda_renders_same_params(self):
        lg = CATALOG.render("irrigate_low_moisture", "lg",
                            {"moisture_pct": 22.0})
        assert "22%" in lg
        assert lg != GOLDEN_EN

    def test_luganda_marked_pending_review(self):
        tpl = CATALOG.template("irrigate_low_moisture", "lg")
        assert tpl.status != "final"
        assert CATALOG.template("irrigate_low_moisture", "en").status == "final"

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

    def test_locales_with_different_placeholders_rejected(self, tmp_path):
        path = write_catalog(tmp_path, """
t:
  locales:
    en: {text: "value {x}"}
    lg: {text: "value {y}"}
""")
        with pytest.raises(ConfigurationError, match="template t"):
            MessageCatalog.from_file(path)

    def test_file_that_is_not_a_mapping_rejected(self, tmp_path):
        path = write_catalog(tmp_path, "- heat_alert\n- humidity_low\n")
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            MessageCatalog.from_file(path)

    def test_entry_without_locales_rejected(self, tmp_path):
        path = write_catalog(tmp_path, "t:\n  text: hello\n")
        with pytest.raises(ConfigurationError,
                           match=r"template t: missing \['locales'\]"):
            MessageCatalog.from_file(path)

    def test_locale_without_text_rejected(self, tmp_path):
        path = write_catalog(tmp_path,
                             "t:\n  locales:\n    en: {status: final}\n")
        with pytest.raises(ConfigurationError,
                           match=r"template t/en: missing \['text'\]"):
            MessageCatalog.from_file(path)

    @pytest.mark.parametrize("text, where, key", [
        # a params list left over from before params were read off the text
        ("t:\n  params: [x]\n  locales:\n    en: {text: '{x}'}\n",
         "template t", "params"),
        ("t:\n  locales:\n    en: {text: '{x}', tone: calm}\n",
         "template t/en", "tone"),
    ])
    def test_unknown_key_rejected(self, tmp_path, text, where, key):
        path = write_catalog(tmp_path, text)
        with pytest.raises(ConfigurationError,
                           match=rf"{where}: .* unknown \['{key}'\]"):
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

    def test_rendering_is_pure(self):
        a = CATALOG.render("heat_alert", "en",
                           {"temp_c": 37.0, "threshold_c": 35.0})
        b = CATALOG.render("heat_alert", "en",
                           {"temp_c": 37.0, "threshold_c": 35.0})
        assert a == b
        assert "37.0" in a


def oracle_percent_encode(text: str) -> str:
    """Independent byte-wise RFC 3986 encoder: everything outside the
    unreserved set is percent-encoded."""
    unreserved = set("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                     "abcdefghijklmnopqrstuvwxyz0123456789-_.~")
    out = []
    for byte in text.encode("utf-8"):
        ch = chr(byte)
        out.append(ch if ch in unreserved else f"%{byte:02X}")
    return "".join(out)


class TestGatewayRequest:
    def test_golden_request_line(self):
        config = GatewayConfig(endpoint="https://gateway.example/whatsapp.php",
                               phone="+256700000001", api_key="424242")
        line = build_gateway_request(config, GOLDEN_EN)
        assert line == (
            "https://gateway.example/whatsapp.php?phone=+256700000001&text="
            + oracle_percent_encode(GOLDEN_EN) + "&apikey=424242")
        assert "%20" in line and "%21" in line
        assert " " not in line.split("text=")[1].split("&")[0]

    def test_encoding_matches_independent_oracle(self):
        samples = [GOLDEN_EN, "a b!c", "100% sure?", "omulimi=ku/ttaka",
                   "newline\nstays encoded"]
        for text in samples:
            line = build_gateway_request(GatewayConfig(), text)
            encoded = line.split("text=")[1].split("&apikey=")[0]
            assert encoded == oracle_percent_encode(text)

    def test_api_key_is_encoded(self):
        line = build_gateway_request(GatewayConfig(api_key="a&b c"), "hi")
        query = urllib.parse.urlsplit(line).query
        assert line.endswith("&apikey=" + oracle_percent_encode("a&b c"))
        params = dict(p.split("=", 1) for p in query.split("&"))
        assert list(params) == ["phone", "text", "apikey"]
        assert urllib.parse.unquote(params["apikey"]) == "a&b c"
        assert build_gateway_request(GatewayConfig(), "hi").endswith(
            "&apikey=123456")

    def test_empty_text_rejected(self):
        with pytest.raises(InputError):
            build_gateway_request(GatewayConfig(), "")

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig(kind="carrier_pigeon")
        with pytest.raises(ConfigurationError):
            GatewayConfig(endpoint="not-a-url")

    @given(st.text(min_size=1, max_size=120))
    @settings(max_examples=500, deadline=None)
    def test_decode_round_trip(self, text):
        line = build_gateway_request(GatewayConfig(), text)
        encoded = line.split("text=")[1].split("&apikey=")[0]
        assert urllib.parse.unquote(encoded) == text


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
                record = d.dispatch_alert(decision.Alert(kind, 1.0, 2.0))
                assert record.template_id == expected
                assert record.status == SENT

    def test_reading_and_threshold_reach_the_text(self):
        d = make_dispatcher()
        heat = d.dispatch_alert(decision.Alert(decision.HEAT, 37.04, 35.0))
        assert heat.text == CATALOG.render(
            "heat_alert", "en", {"temp_c": 37.04, "threshold_c": 35.0})
        assert "37.0 C" in heat.text and "35.0 C" in heat.text
        low = d.dispatch_alert(
            decision.Alert(decision.HUMIDITY_LOW, 24.6, 30.0))
        assert "25%" in low.text

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            make_dispatcher().dispatch_alert(
                decision.Alert("COSMIC_RAY", 0.0, 0.0))


class TestDispatcher:
    def test_first_send_recorded(self):
        client = RecordingGatewayClient()
        d = make_dispatcher(client)
        record = d.dispatch_alert(low_moisture(0))
        assert record.status == SENT
        assert record.text == GOLDEN_EN
        assert record.timestamp_s == 0
        assert client.requests == [build_gateway_request(GatewayConfig(),
                                                         GOLDEN_EN)]

    def test_duplicate_within_window_suppressed(self):
        d = make_dispatcher()
        first = d.dispatch_alert(low_moisture(0))
        hour_later = d.dispatch_alert(low_moisture(3600, moisture_pct=21.0))
        assert first.status == SENT
        assert hour_later.status == SUPPRESSED_DUPLICATE
        assert hour_later.timestamp_s == 3600

    def test_resend_after_window(self):
        d = make_dispatcher()
        d.dispatch_alert(low_moisture(0))
        later = d.dispatch_alert(low_moisture(43_200))
        assert later.status == SENT

    def test_different_templates_do_not_collide(self):
        d = make_dispatcher()
        d.dispatch_alert(low_moisture(0))
        heat = d.dispatch_alert(decision.Alert(decision.HEAT, 37.0, 35.0, 1))
        assert heat.status == SENT

    def test_different_fields_do_not_collide(self):
        # the dedup key carries the dispatcher's field, so the logs of two
        # fields never share a key
        one, two = (make_dispatcher(field_id=f)
                    for f in ("field-1", "field-2"))
        first = one.dispatch_alert(low_moisture(0))
        other = two.dispatch_alert(low_moisture(1))
        assert (first.status, other.status) == (SENT, SENT)
        assert first.dedup_key == "field-1:irrigate_low_moisture"
        assert other.dedup_key == "field-2:irrigate_low_moisture"

    def test_gateway_failure_recorded_not_raised(self):
        d = make_dispatcher(FailingGatewayClient("gateway unreachable"))
        record = d.dispatch_alert(low_moisture(0))
        assert record.status == FAILED
        assert "unreachable" in record.detail
        # a failed send does not start a dedup window
        d.client = RecordingGatewayClient()
        retry = d.dispatch_alert(low_moisture(60))
        assert retry.status == SENT

    def test_export_csv_row_count(self, tmp_path):
        d = make_dispatcher(locale="lg")
        d.dispatch_alert(low_moisture(0))
        d.dispatch_alert(low_moisture(60))
        path = tmp_path / "dispatch.csv"
        assert d.export_csv(path) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 rows
        # gateway kind and locale are the dispatcher's, written on every row
        assert [line.split(",")[:5] for line in lines[1:]] == [
            ["0", "whatsapp_gateway", "irrigate_low_moisture", "lg", SENT],
            ["60", "whatsapp_gateway", "irrigate_low_moisture", "lg",
             SUPPRESSED_DUPLICATE]]

    @given(st.lists(st.floats(0, 10 * 86_400), min_size=1, max_size=60),
           st.floats(60.0, 2 * 86_400))
    @settings(max_examples=300, deadline=None)
    def test_at_most_one_send_per_window(self, clocks, window):
        # same key throughout: consecutive SENT timestamps must be >= window apart
        d = make_dispatcher(window=window)
        sent_times = []
        for t in sorted(clocks):
            record = d.dispatch_alert(low_moisture(t))
            if record.status == SENT:
                sent_times.append(t)
        assert sent_times  # the first attempt always sends
        for a, b in zip(sent_times, sent_times[1:]):
            assert b - a >= window
