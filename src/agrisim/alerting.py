"""Farmer-facing alert rendering and dispatch.

Decision outputs are rendered from a bilingual message catalog (English and
Luganda; the Luganda entries are drafts pending review) into the text a
WhatsApp gateway or SMS would carry to the farmer. The dispatch log records
each alert's text, its gateway kind and whether it was sent or suppressed;
nothing ever touches the network.

Identical messages for the same field are deduplicated within a configurable
window so 5-minute sampling cannot spam a farmer. Alerts are timed in whole
seconds.
"""

from __future__ import annotations

import functools
import string
import sys
from dataclasses import dataclass, field

import numpy as np

from agrisim import decision, ingest, yamlfile
from agrisim.errors import AgrisimError, ConfigurationError, InputError
from agrisim.rows import write_csv

WHATSAPP_GATEWAY = "whatsapp_gateway"
SMS = "sms"

# the locales a scenario may alert in, and so the only ones a catalog holds
LOCALES = ("en", "lg")

SENT = "SENT"
SUPPRESSED_DUPLICATE = "SUPPRESSED_DUPLICATE"


class RenderError(AgrisimError):
    pass


class TemplateNotFound(AgrisimError):
    pass


@dataclass(frozen=True)
class MessageTemplate:
    template_id: str
    locale: str
    text: str
    # the text's placeholder names in order of first use, read once here
    params: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        where = f"{self.template_id}/{self.locale}"
        try:  # a text that is not a str, or has an unmatched brace, fails
            fields = [f for f in _FORMATTER.parse(self.text)
                      if f[1] is not None]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        if not self.text:  # the gateway refuses an empty message
            raise ConfigurationError(f"{where}: empty text")
        # render fills placeholders by keyword with parameters it formatted
        # as str, so {}, {0}, {x.y}, {x[0]}, {x:.1f} and {x!r} cannot work
        for _, name, spec, conversion in fields:
            if not name.isidentifier() or spec or conversion:
                raise ConfigurationError(f"{where}: placeholder {{{name}}} "
                                         f"must be a bare name")
        object.__setattr__(self, "params",
                           tuple(dict.fromkeys(f[1] for f in fields)))


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

    @classmethod
    def from_file(cls, path) -> "MessageCatalog":
        """Load a catalog of ``template_id: {locale: text}``; a template's
        locales must share placeholders."""
        templates = {}
        for tid, texts in yamlfile.mapping(yamlfile.read(path), path).items():
            for locale, text in yamlfile.mapping(texts, tid, LOCALES).items():
                templates[(tid, locale)] = MessageTemplate(tid, locale, text)
            if len({frozenset(templates[(tid, loc)].params)
                    for loc in texts}) > 1:
                raise ConfigurationError(
                    f"template {tid}: locales use different placeholders")
        return cls(templates)

    @classmethod
    @functools.cache
    def default(cls) -> "MessageCatalog":
        """The packaged catalog, parsed once per process and then shared:
        a catalog has no mutators."""
        with yamlfile.packaged("messages.yaml") as path:
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

    def __post_init__(self):
        if self.kind not in (WHATSAPP_GATEWAY, SMS):
            raise ConfigurationError(f"unknown gateway kind: {self.kind}")


@dataclass(frozen=True)
class AlertingParams:
    """A scenario's ``alerting`` section: alert locale and dedup window."""

    locale: str = "en"
    dedup_window_s: float = 12 * 3600.0

    def __post_init__(self):
        if self.locale not in LOCALES:
            raise ConfigurationError(f"unsupported locale: {self.locale}")
        # False for NaN, and exact for an int too large for a float
        if not 0.0 < self.dedup_window_s <= sys.float_info.max:
            raise ConfigurationError(
                f"dedup_window_s must be positive and finite: "
                f"{self.dedup_window_s!r}")


@dataclass
class DispatchRecords:
    """Dispatch outcomes as columns, one row per alert in dispatch order."""

    timestamp_s: list[int] = field(default_factory=list)
    template_id: list[str] = field(default_factory=list)
    text: list[str] = field(default_factory=list)
    status: list[str] = field(default_factory=list)
    dedup_key: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timestamp_s)


# per ALERT_KINDS entry: the catalog template and the parameter that carries
# the reading; heat_alert also prints the rule's limit, as threshold_c
_ALERT_TEMPLATES = (("heat_alert", "temp_c"), ("humidity_low", "humidity_pct"),
                    ("humidity_high", "humidity_pct"),
                    ("irrigate_low_moisture", "moisture_pct"))


class Dispatcher:
    """Dispatcher of one field's alerts, with duplicate suppression: at
    most one SENT per (field, template) key within ``alerting``'s dedup
    window, timed by each alert's own timestamp in whole seconds. Alerts
    render in ``alerting``'s locale and end in the log."""

    def __init__(self, catalog: MessageCatalog, gateway: GatewayConfig,
                 alerting: AlertingParams, field_id: str):
        self.catalog = catalog
        self.gateway = gateway
        self.alerting = alerting
        self.field_id = field_id
        self.records = DispatchRecords()
        self._last_sent: dict[str, int] = {}

    def dispatch(self, alerts: decision.Alerts) -> None:
        """Dispatch alerts given as columns in time order; append their
        records. Each distinct (template, formatted parameters) renders
        once. Each dedup key sends the alerts that ``ingest.due_mask``
        keeps, the key's last send carried from earlier calls, and
        suppresses the rest. A kind that is not an integer index into
        ``ALERT_KINDS``, a time column that is not whole seconds in the int64
        range, a time out of order, or columns that are not 1-D and of one
        length raise ``InputError`` before anything is recorded."""
        kind, times = alerts.kind, ingest.time_column(alerts.timestamp_s)
        if any(np.shape(c) != times.shape
               for c in (kind, alerts.observed, alerts.threshold)):
            raise InputError("alert columns must be 1-D and of one length")
        if kind.dtype.kind not in "iu" or len(kind) and not (
                0 <= kind.min() <= kind.max() < len(_ALERT_TEMPLATES)):
            raise InputError("alert kinds must be integers indexing "
                             "ALERT_KINDS")
        template_id, key, text = (np.empty(len(kind), dtype=object)
                                  for _ in range(3))
        status = np.full(len(kind), SUPPRESSED_DUPLICATE, dtype=object)
        for k in np.flatnonzero(np.bincount(kind)).tolist():
            rows = np.flatnonzero(kind == k)
            tid, reading = _ALERT_TEMPLATES[k]
            dedup_key = f"{self.field_id}:{tid}"
            template_id[rows], key[rows] = tid, dedup_key
            text[rows] = self._texts(tid, {
                reading: alerts.observed[rows],
                "threshold_c": alerts.threshold[rows]})
            sent = rows[ingest.due_mask(times[rows],
                                        self._last_sent.get(dedup_key),
                                        self.alerting.dedup_window_s)]
            status[sent] = SENT
            if len(sent):
                self._last_sent[dedup_key] = times[sent[-1]].item()
        for column, new in zip(vars(self.records).values(), (
                times, template_id, text, status, key)):
            column += new.tolist()

    def _texts(self, template_id: str, params: dict) -> np.ndarray:
        """Each row's text, rendered once per distinct set of formatted
        parameters. Each parameter is formatted once per distinct value; a
        percent prints as an integer, so it is rounded first (``rint``
        rounds half to even, as the format does)."""
        group = np.zeros(len(params["threshold_c"]), dtype=np.int64)
        locale = self.alerting.locale
        for name in self.catalog.template(template_id, locale).params:
            if name in params:  # else render names the missing one
                values = params[name]
                if name.endswith("_pct"):
                    values = np.rint(values)
                distinct, inverse = np.unique(values.view(np.int64),
                                              return_inverse=True)
                _, code = np.unique([_format_param(name, v) for v in
                                     distinct.view(np.float64).tolist()],
                                    return_inverse=True)
                group = group * len(distinct) + code[inverse]
        _, first, inverse = np.unique(group, return_index=True,
                                      return_inverse=True)
        return np.array([self.catalog.render(
            template_id, locale, {n: c[r] for n, c in params.items()})
            for r in first.tolist()], dtype=object)[inverse]

    def dispatch_alert(self, kind: int, observed: float, threshold: float,
                       timestamp_s: int = 0) -> None:
        """One alert: ``dispatch`` of a one-row ``Alerts``."""
        self.dispatch(decision.Alerts(
            np.array([kind]), np.array([observed], dtype=np.float64),
            np.array([threshold], dtype=np.float64), np.array([timestamp_s])))

    def export_csv(self, fh) -> int:
        """Write the log to a text stream as the ``csv`` module would. The
        last column, ``detail``, is an empty field on every row."""
        r, n = self.records, len(self.records)
        write_csv(fh, ["timestamp_s", "gateway", "template_id", "locale",
                       "status", "dedup_key", "text", "detail"],
                  [r.timestamp_s, [self.gateway.kind] * n, r.template_id,
                   [self.alerting.locale] * n, r.status, r.dedup_key, r.text,
                   [""] * n])
        return n
