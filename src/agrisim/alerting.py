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
from dataclasses import dataclass
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

DEFAULT_DEDUP_WINDOW_S = 12 * 3600


class RenderError(AgrisimError):
    pass


class TemplateNotFound(AgrisimError):
    pass


@dataclass(frozen=True)
class MessageTemplate:
    template_id: str
    locale: str
    text: str
    params: tuple[str, ...]
    status: str = "final"

    def __post_init__(self):
        declared = set(self.params)
        # every placeholder in the text must be a declared parameter
        formatter_fields = {
            name for _, name, _, _ in _FORMATTER.parse(self.text) if name}
        undeclared = formatter_fields - declared
        if undeclared:
            raise ConfigurationError(
                f"{self.template_id}/{self.locale}: undeclared placeholders "
                f"{sorted(undeclared)}")


_FORMATTER = string.Formatter()


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
        # both locales of a template must declare the same parameter set
        by_id: dict[str, set[frozenset]] = {}
        for (tid, _), tpl in templates.items():
            by_id.setdefault(tid, set()).add(frozenset(tpl.params))
        for tid, param_sets in by_id.items():
            if len(param_sets) > 1:
                raise ConfigurationError(
                    f"template {tid}: locales declare different parameters")

    @classmethod
    def from_file(cls, path) -> "MessageCatalog":
        with Path(path).open() as fh:
            raw = yaml.safe_load(fh)
        templates = {}
        for tid, entry in raw.items():
            params = tuple(entry["params"])
            for locale, spec in entry["locales"].items():
                templates[(tid, locale)] = MessageTemplate(
                    template_id=tid, locale=locale, text=spec["text"],
                    params=params, status=spec.get("status", "final"))
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
    timestamp_s: float
    gateway_kind: str
    template_id: str
    locale: str
    text: str
    status: str
    dedup_key: str
    detail: str = ""


def template_for_alert(alert: decision.Alert) -> tuple[str, dict]:
    """Map an environmental alert onto its catalog template and parameters."""
    if alert.kind == decision.HEAT:
        return "heat_alert", {"temp_c": alert.observed,
                              "threshold_c": alert.threshold}
    if alert.kind == decision.HUMIDITY_LOW:
        return "humidity_low", {"humidity_pct": alert.observed}
    if alert.kind == decision.HUMIDITY_HIGH:
        return "humidity_high", {"humidity_pct": alert.observed}
    if alert.kind == decision.MOISTURE_LOW:
        return "irrigate_low_moisture", {"moisture_pct": alert.observed}
    raise InputError(f"unknown alert kind: {alert.kind}")


class Dispatcher:
    """Serialized per-field dispatcher with duplicate suppression.

    At most one SENT per (field, template) key within the dedup window;
    client failures are recorded, never raised.
    """

    def __init__(self, catalog: MessageCatalog, gateway: GatewayConfig,
                 client, locale: str = "en",
                 dedup_window_s: float = DEFAULT_DEDUP_WINDOW_S):
        self.catalog = catalog
        self.gateway = gateway
        self.client = client
        self.locale = locale
        self.dedup_window_s = dedup_window_s
        self.records: list[DispatchRecord] = []
        self._last_sent: dict[str, float] = {}

    def dispatch(self, template_id: str, params: dict, clock_s: float,
                 field_id: str = "field-1") -> DispatchRecord:
        text = self.catalog.render(template_id, self.locale, params)
        key = f"{field_id}:{template_id}"
        last = self._last_sent.get(key)
        if last is not None and clock_s - last < self.dedup_window_s:
            record = DispatchRecord(clock_s, self.gateway.kind, template_id,
                                    self.locale, text, SUPPRESSED_DUPLICATE, key)
        else:
            request_line = build_gateway_request(self.gateway, text)
            try:
                self.client.send(request_line)
            except Exception as exc:
                record = DispatchRecord(clock_s, self.gateway.kind, template_id,
                                        self.locale, text, FAILED, key,
                                        detail=str(exc))
            else:
                self._last_sent[key] = clock_s
                record = DispatchRecord(clock_s, self.gateway.kind, template_id,
                                        self.locale, text, SENT, key)
        self.records.append(record)
        return record

    def dispatch_alert(self, alert: decision.Alert, clock_s: float,
                       field_id: str = "field-1") -> DispatchRecord:
        template_id, params = template_for_alert(alert)
        return self.dispatch(template_id, params, clock_s, field_id)

    def export_csv(self, path) -> int:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp_s", "gateway", "template_id", "locale",
                             "status", "dedup_key", "text", "detail"])
            for r in self.records:
                writer.writerow([r.timestamp_s, r.gateway_kind, r.template_id,
                                 r.locale, r.status, r.dedup_key, r.text,
                                 r.detail])
        return len(self.records)
