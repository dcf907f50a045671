"""Command-line entry point.

Subcommands:
  run <scenario> [--out DIR] [--seed N]   full two-arm season + artifacts
  report <out-dir>                        re-render tables from stored totals

``run`` also writes ``timings.json`` beside the manifest: the wall seconds
of ``run_season`` and of each of its stages. Wall time differs from run to
run, so the manifest does not list the file; ``report`` prints it if present.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from agrisim import metrics, pipeline
from agrisim.errors import AgrisimError
from agrisim.scenario import load_scenario

TIMINGS_NAME = "timings.json"


def _load(path: str, seed_override):
    scenario = load_scenario(path)
    if seed_override is not None:
        scenario = dataclasses.replace(scenario, seed=seed_override)
    return scenario


def cmd_run(args) -> int:
    scenario = _load(args.scenario, args.seed)
    out_dir = Path(args.out) if args.out else Path(f"out_{scenario.name}")
    start = time.perf_counter()
    output = pipeline.run_season(scenario, out_dir=out_dir)
    run_s = time.perf_counter() - start
    (out_dir / TIMINGS_NAME).write_text(json.dumps(
        {"run_season_s": run_s, "stages_s": output.timings}, indent=2) + "\n",
        encoding="utf-8")
    print(f"scenario: {scenario.name}  seed: {scenario.seed}")
    print(metrics.format_report_table(output.report))
    t = output.totals
    print(f"water:  baseline {t.baseline_water_l_per_acre:.0f} L/acre, "
          f"system {t.system_water_l_per_acre:.0f} L/acre "
          f"({output.observations['Water Usage']:.1f}% reduction)")
    print(f"yield:  baseline {t.baseline_yield_kg_per_acre:.0f} kg/acre, "
          f"system {t.system_yield_kg_per_acre:.0f} kg/acre "
          f"({output.observations['Crop Yield']:.1f}% increase)")
    for proto, s in output.transport_stats.items():
        print(f"{proto:8s} attempted={s.attempted} delivered={s.delivered} "
              f"rate={s.delivery_rate:.4f} energy={s.energy_mwh:.2f} mWh "
              f"latency={s.mean_latency_s:.1f} s")
    print("energy ratio (pubsub/reqresp): "
          f"{t.pubsub_energy_mwh / t.reqresp_energy_mwh:.4f}")
    print(f"artifacts: {out_dir}/")
    return 0


def _totals_lines(data) -> list[str]:
    report = metrics.build_report(data["observations"], data["report_targets"])
    econ = data["economics"]
    return [
        f"scenario: {data['scenario']}",
        metrics.format_report_table(report),
        f"cost savings: {econ['cost_savings_ugx']:.0f} UGX "
        f"({econ['cost_savings_fraction_pct']:.1f}% of baseline cost)",
        f"revenue gain: {econ['revenue_gain_ugx']:.0f} UGX",
    ]


def _timings_lines(data) -> list[str]:
    return [f"stage times (run_season {data['run_season_s'] * 1e3:.1f} ms):",
            *(f"  {name:16s}{seconds * 1e3:9.2f} ms"
              for name, seconds in data["stages_s"].items())]


def _render(path: Path, lines) -> list[str]:
    """``lines`` of the JSON document in ``path``; a file that is not one,
    or lacks an entry, fails as an ``AgrisimError`` that names it."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise AgrisimError(f"{path} is not valid JSON: {exc}") from None
    try:
        return lines(data)
    except KeyError as exc:
        raise AgrisimError(f"{path} has no {exc} entry") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise AgrisimError(f"{path} is malformed: {exc}") from None


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    if not (out_dir / "totals.json").exists():
        raise AgrisimError(f"no totals.json under {args.out_dir}")
    lines = _render(out_dir / "totals.json", _totals_lines)
    if (out_dir / TIMINGS_NAME).exists():
        lines += _render(out_dir / TIMINGS_NAME, _timings_lines)
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrisim",
        description="Deterministic smart-irrigation pipeline simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the two-arm season simulation")
    p_run.add_argument("scenario", help="scenario YAML path")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="re-render report from a run dir")
    p_rep.add_argument("out_dir", help="directory written by 'run'")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    # a C locale gives an ASCII stdout, and the report prints units such as
    # °C: escape what it cannot encode, as Python already does on stderr
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AgrisimError, OSError) as exc:  # e.g. --out names a file
        print(f"error [{exc.__class__.__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
