"""Validation metrics: water/yield/economics formulas, a water-stress yield
model, and the threshold-status report with its radar-chart data.

The yield model is the classic linear yield-response-to-water form:
Ya = Ym * (1 - Ky * (1 - ETa/ETm)), with Ky defaulting to 1.25 for maize.
"""

from __future__ import annotations

from dataclasses import dataclass

from agrisim.errors import ConfigurationError, InputError
from agrisim.rows import write_csv

# report row kinds; each has its own status rule
ROW_ALERT_ABOVE = "alert_above"      # environmental: above threshold is bad
ROW_WITHIN = "within"                # environmental: at/below target is fine
ROW_ABOVE_THRESHOLD = "above_threshold"  # resource level vs a floor
ROW_PERFORMANCE = "performance"      # higher is better vs a target

STATUS_ALERT = "Alert"
STATUS_WITHIN = "Within Range"
STATUS_ABOVE = "Above Threshold"
STATUS_EXCEEDED = "Exceeded"
STATUS_BELOW_TARGET = "Below Target"

LITERS_PER_ACRE_MM = 4046.86  # 1 mm of water over one acre


@dataclass(frozen=True)
class SeasonTotals:
    """Season-level outcomes for the two policy arms and the transport."""

    baseline_water_l_per_acre: float
    system_water_l_per_acre: float
    baseline_yield_kg_per_acre: float
    system_yield_kg_per_acre: float
    pubsub_energy_mwh: float
    reqresp_energy_mwh: float
    delivery_rate: float
    baseline_event_count: int
    system_event_count: int

    def __post_init__(self):
        if not 0.0 <= self.delivery_rate <= 1.0:
            raise InputError(f"delivery_rate outside [0, 1]: {self.delivery_rate}")


@dataclass(frozen=True)
class EconomicParams:
    """Artifact-default prices; the maize price is the only literature value."""

    maize_price_ugx_per_kg: float = 2500.0
    water_cost_ugx_per_l: float = 10.0
    labor_cost_ugx_per_event: float = 5000.0

    def __post_init__(self):
        for v in (self.maize_price_ugx_per_kg, self.water_cost_ugx_per_l,
                  self.labor_cost_ugx_per_event):
            if not v >= 0.0:
                raise ConfigurationError(
                    "economic parameters must be non-negative")
        if self.water_cost_ugx_per_l == self.labor_cost_ugx_per_event == 0.0:
            raise ConfigurationError(
                "water_cost_ugx_per_l and labor_cost_ugx_per_event are both 0")


def water_efficiency_pct(baseline_l: float, system_l: float) -> float:
    """Percent reduction in water use relative to the baseline arm."""
    if baseline_l <= 0.0:
        raise InputError("baseline water use must be positive")
    if system_l < 0.0:
        raise InputError("system water use must be non-negative")
    return (baseline_l - system_l) / baseline_l * 100.0


def yield_improvement_pct(system_kg: float, baseline_kg: float) -> float:
    """Percent yield gain of the system arm over the baseline arm."""
    if baseline_kg <= 0.0:
        raise InputError("baseline yield must be positive")
    return (system_kg - baseline_kg) / baseline_kg * 100.0


def yield_from_water_stress(eta_mm: float, etm_mm: float, ky: float,
                            max_yield_kg: float) -> float:
    """Actual yield under a season ET deficit, clamped at zero."""
    if etm_mm <= 0.0:
        raise InputError("ETm must be positive")
    if not 0.0 <= eta_mm <= etm_mm:
        raise InputError(f"ETa {eta_mm} outside [0, ETm={etm_mm}]")
    if ky <= 0.0:
        raise InputError("ky must be positive")
    ya = max_yield_kg * (1.0 - ky * (1.0 - eta_mm / etm_mm))
    return max(ya, 0.0)


def revenue_gain_ugx(extra_yield_kg: float, price_ugx_per_kg: float) -> float:
    if extra_yield_kg < 0.0 or price_ugx_per_kg < 0.0:
        raise InputError("revenue inputs must be non-negative")
    return extra_yield_kg * price_ugx_per_kg


@dataclass(frozen=True)
class MetricRow:
    parameter: str
    recorded: float
    threshold: float
    unit: str
    status: str


def row_status(recorded: float, threshold: float, kind: str) -> str:
    """Status of one report row; a pure function of (value, threshold, kind)."""
    if kind == ROW_ALERT_ABOVE:
        return STATUS_ALERT if recorded > threshold else STATUS_WITHIN
    if kind == ROW_WITHIN:
        return STATUS_WITHIN if recorded <= threshold else STATUS_ALERT
    if kind == ROW_ABOVE_THRESHOLD:
        return STATUS_ABOVE if recorded > threshold else STATUS_ALERT
    if kind == ROW_PERFORMANCE:
        return STATUS_EXCEEDED if recorded >= threshold else STATUS_BELOW_TARGET
    raise InputError(f"unknown row kind: {kind}")


# (parameter, unit, kind, default target) for the standard seven-row
# validation table
REPORT_LAYOUT = (
    ("Temperature", "°C", ROW_ALERT_ABOVE, 35.0),
    ("Humidity", "%", ROW_WITHIN, 70.0),
    ("Soil Moisture", "%", ROW_ABOVE_THRESHOLD, 30.0),
    ("Data Transmission", "%", ROW_PERFORMANCE, 95.0),
    ("Water Usage", "% reduction", ROW_PERFORMANCE, 25.0),
    ("Crop Yield", "% increase", ROW_PERFORMANCE, 20.0),
    ("Energy Efficiency", "%", ROW_PERFORMANCE, 90.0),
)


def build_report(observations: dict[str, float],
                 thresholds: dict[str, float]) -> tuple[MetricRow, ...]:
    """Build the threshold-validation table.

    ``observations`` and ``thresholds`` map the standard parameter names to
    recorded values and targets; every layout row must be present.
    """
    rows = []
    for parameter, unit, kind, _ in REPORT_LAYOUT:
        if parameter not in observations or parameter not in thresholds:
            raise InputError(f"report value missing for: {parameter}")
        recorded = observations[parameter]
        threshold = thresholds[parameter]
        rows.append(MetricRow(parameter, recorded, threshold, unit,
                              row_status(recorded, threshold, kind)))
    return tuple(rows)


def radar_data(report: tuple[MetricRow, ...]
               ) -> list[tuple[str, float, float, float]]:
    """Normalized (name, recorded, target, recorded/target) rows for external
    plotting."""
    if not report:
        raise InputError("empty report")
    out = []
    for r in report:
        if r.threshold == 0.0:
            raise InputError(f"zero target for {r.parameter}")
        out.append((r.parameter, r.recorded, r.threshold,
                    r.recorded / r.threshold))
    return out


def format_report_table(report: tuple[MetricRow, ...]) -> str:
    """Aligned text rendering of the validation table."""
    header = ("Parameter", "Recorded Value", "Threshold/Target", "Unit", "Status")
    body = [(r.parameter, f"{r.recorded:.1f}", f"{r.threshold:.1f}", r.unit,
             r.status) for r in report]
    widths = [max(len(row[i]) for row in [header, *body])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(row, widths)).rstrip()
             for row in [header, *body]]
    return "\n".join(lines) + "\n"


def export_report_csv(report: tuple[MetricRow, ...], fh) -> None:
    names = ["parameter", "recorded", "threshold", "unit", "status"]
    write_csv(fh, names,
              [[getattr(r, name) for r in report] for name in names])


def export_radar_csv(report: tuple[MetricRow, ...], fh) -> None:
    names, *values = zip(*radar_data(report))
    write_csv(fh, ["metric", "recorded", "target", "ratio"], [names, *values])
