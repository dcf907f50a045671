"""Farmer-facing alert rendering and dispatch.

Decision outputs are rendered from a bilingual message catalog (English and
Luganda; the Luganda entries are marked pending review) and handed to a
pluggable gateway client: any object with a ``send(request_line)`` method
that raises on failure. Only a recording mock client ships in-repo: the
request line is built exactly as a free WhatsApp-gateway or SMS GET call
would be, but nothing ever touches the network.

Identical messages for the same field are deduplicated within a configurable
window so 5-minute sampling cannot spam a farmer.
"""

from __future__ import annotations

import csv
import functools
import string
import urllib.parse
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from agrisim import decision
from agrisim.errors import AgrisimError, ConfigurationError, InputError

WHATSAPP_GATEWAY = "whatsapp_gateway"
SMS = "sms"

SENT = "SENT"
SUPPRESSED_DUPLICATE = "SUPPRESSED_DUPLICATE"
FAILED = "FAILED"

DEFAULT_DEDUP_WINDOW_S = 12 * 3600.0


class RenderError(AgrisimError):
    pass


class TemplateNotFound(AgrisimError):
    pass


@dataclass(frozen=True)
class MessageTemplate:
    template_id: str
    locale: str
    text: str
    status: str = "final"
    # the text's placeholder names in order of first use, read once here
    params: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        where = f"{self.template_id}/{self.locale}"
        try:  # a text that is not a str, or has an unmatched brace, fails
            names = [n for _, n, _, _ in _FORMATTER.parse(self.text)
                     if n is not None]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        # render fills placeholders by keyword, so {}, {0}, {x.y} and
        # {x[0]} could never be filled
        for name in names:
            if not name.isidentifier():
                raise ConfigurationError(
                    f"{where}: placeholder {{{name}}} is not a name")
        object.__setattr__(self, "params", tuple(dict.fromkeys(names)))


_FORMATTER = string.Formatter()


def _keys(where: str, value, required=frozenset(), allowed=None) -> dict:
    """``value`` as a mapping with every ``required`` key, and only
    ``allowed`` ones unless that is None."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a mapping")
    allowed = value.keys() if allowed is None else allowed
    if not required <= value.keys() <= allowed:
        raise ConfigurationError(
            f"{where}: missing {sorted(required - value.keys())}, unknown "
            f"{sorted(map(str, value.keys() - allowed))}")
    return value


def _format_param(name: str, value) -> str:
    """Fixed numeric formatting: integer percents, one-decimal temperatures."""
    if name.endswith("_pct"):
        return f"{float(value):.0f}"
    if name.endswith("_c"):
        return f"{float(value):.1f}"
    return str(value)


class MessageCatalog:
    """Bilingual template catalog loaded from a structured-text file."""

    def __init__(self, templates: dict[tuple[str, str], MessageTemplate]):
        self._templates = templates

    @classmethod
    def from_file(cls, path) -> "MessageCatalog":
        """Load a catalog; a template's locales must share placeholders."""
        with Path(path).open() as fh:
            raw = _keys(f"catalog {path}", yaml.safe_load(fh))
        templates = {}
        for tid, entry in raw.items():
            where = f"template {tid}"
            entry = _keys(where, entry, {"locales"}, {"locales"})
            locales = _keys(f"{where}: locales", entry["locales"])
            for locale, spec in locales.items():
                spec = _keys(f"{where}/{locale}", spec, {"text"},
                             {"text", "status"})
                templates[(tid, locale)] = MessageTemplate(
                    tid, locale, spec["text"], spec.get("status", "final"))
            if len({frozenset(templates[(tid, loc)].params)
                    for loc in locales}) > 1:
                raise ConfigurationError(
                    f"template {tid}: locales use different placeholders")
        return cls(templates)

    @classmethod
    @functools.cache
    def default(cls) -> "MessageCatalog":
        """The packaged catalog, parsed once per process and then shared:
        a catalog has no mutators."""
        ref = resources.files("agrisim").joinpath("data/messages.yaml")
        with resources.as_file(ref) as path:
            return cls.from_file(path)

    def template(self, template_id: str, locale: str) -> MessageTemplate:
        try:
            return self._templates[(template_id, locale)]
        except KeyError:
            raise TemplateNotFound(f"{template_id}/{locale}") from None

    def render(self, template_id: str, locale: str, params: dict) -> str:
        """Substitute parameters into a template. Pure: same inputs, same
        bytes out."""
        tpl = self.template(template_id, locale)
        missing = set(tpl.params) - params.keys()
        if missing:
            raise RenderError(
                f"{template_id}/{locale}: missing params {sorted(missing)}")
        rendered = {name: _format_param(name, params[name])
                    for name in tpl.params}
        return tpl.text.format(**rendered)


@dataclass(frozen=True)
class GatewayConfig:
    kind: str = WHATSAPP_GATEWAY
    endpoint: str = "https://gateway.example/whatsapp.php"
    phone: str = "+256700000000"
    api_key: str = "123456"

    def __post_init__(self):
        if self.kind not in (WHATSAPP_GATEWAY, SMS):
            raise ConfigurationError(f"unknown gateway kind: {self.kind}")
        if not self.phone:
            raise ConfigurationError("phone must be non-empty")
        parsed = urllib.parse.urlparse(self.endpoint)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ConfigurationError(f"malformed endpoint: {self.endpoint}")


def build_gateway_request(config: GatewayConfig, text: str) -> str:
    """GET-style request line with bit-exact URL encoding of the message
    (space -> %20, '!' -> %21); the API key is encoded the same way."""
    if not text:
        raise InputError("empty message text")
    phone = urllib.parse.quote(config.phone, safe="+")
    encoded, api_key = (urllib.parse.quote(s, safe="")
                        for s in (text, config.api_key))
    return f"{config.endpoint}?phone={phone}&text={encoded}&apikey={api_key}"


class RecordingGatewayClient:
    """Mock client: records every request line, always succeeds."""

    def __init__(self):
        self.requests: list[str] = []

    def send(self, request_line: str) -> None:
        self.requests.append(request_line)


@dataclass(frozen=True)
class DispatchRecord:
    timestamp_s: int
    template_id: str
    text: str
    status: str
    dedup_key: str
    detail: str = ""


# alert kind -> (catalog template, the parameter that carries the reading);
# heat_alert also prints the rule's limit, as threshold_c
_ALERT_TEMPLATES = {
    decision.HEAT: ("heat_alert", "temp_c"),
    decision.HUMIDITY_LOW: ("humidity_low", "humidity_pct"),
    decision.HUMIDITY_HIGH: ("humidity_high", "humidity_pct"),
    decision.MOISTURE_LOW: ("irrigate_low_moisture", "moisture_pct"),
}


class Dispatcher:
    """Serialized dispatcher of one field's alerts, with duplicate
    suppression: at most one SENT per (field, template) key within the dedup
    window, timed by each alert's own timestamp. Alerts render in the
    dispatcher's locale; client failures are recorded, never raised."""

    def __init__(self, catalog: MessageCatalog, gateway: GatewayConfig,
                 client, locale: str = "en",
                 dedup_window_s: float = DEFAULT_DEDUP_WINDOW_S,
                 field_id: str = "field-1"):
        self.catalog = catalog
        self.gateway = gateway
        self.client = client
        self.locale = locale
        self.dedup_window_s = dedup_window_s
        self.field_id = field_id
        self.records: list[DispatchRecord] = []
        self._last_sent: dict[str, float] = {}

    def dispatch_alert(self, alert: decision.Alert) -> DispatchRecord:
        if alert.kind not in _ALERT_TEMPLATES:
            raise InputError(f"unknown alert kind: {alert.kind}")
        template_id, reading = _ALERT_TEMPLATES[alert.kind]
        text = self.catalog.render(template_id, self.locale, {
            reading: alert.observed, "threshold_c": alert.threshold})
        clock_s = alert.timestamp_s
        key = f"{self.field_id}:{template_id}"
        status, detail = SENT, ""
        last = self._last_sent.get(key)
        if last is not None and clock_s - last < self.dedup_window_s:
            status = SUPPRESSED_DUPLICATE
        else:
            request_line = build_gateway_request(self.gateway, text)
            try:
                self.client.send(request_line)
            except Exception as exc:
                status, detail = FAILED, str(exc)
            else:
                self._last_sent[key] = clock_s
        record = DispatchRecord(clock_s, template_id, text, status, key,
                                detail)
        self.records.append(record)
        return record

    def export_csv(self, path) -> int:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp_s", "gateway", "template_id", "locale",
                             "status", "dedup_key", "text", "detail"])
            for r in self.records:
                writer.writerow([r.timestamp_s, self.gateway.kind,
                                 r.template_id, self.locale, r.status,
                                 r.dedup_key, r.text, r.detail])
        return len(self.records)
