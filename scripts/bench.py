#!/usr/bin/env python3
"""Time ``pipeline.run_season`` end to end in this process and write the
figures as JSON.

    python3 scripts/bench.py BENCH_<n>.json

After one warm-up run of each kind, it times ``REPEATS`` runs of the shipped
scenario with artifacts (to a fresh temporary directory each) and as many in
memory, alternating the two, and keeps each run's ``RunOutput.timings``:
``layers`` holds each stage's reference-scaled median, by kind of run. It
also times the reference kernel of ``perfbench/calibrate.py`` (imported
read-only) ``KERNEL_RUNS`` times before and after, because the speed of a
shared host drifts: ``e2e_ref_s`` and ``layers`` pass each median through
``calibrate.to_reference`` with the median kernel times before and after.
Between those kernel runs it also times a whole sensor arm alone: the
season's weather, its ``decision.season_drivers`` and
``decision.schedule_season`` with SENSOR_DRIVEN, all the work of one arm
whose inputs no other arm shares. It runs ``REPEATS`` times for each of
three seasons in turn: the shipped scenario, its wet variant
(perfbench's season-wet-lossy weather: ``dry_season: false``, rain
probability 0.3, mean 8 mm) and a season that irrigates nearly every day
(2 mm cap, 40% trigger). ``kernel_ref_s`` holds each one's reference-scaled
median and its event count. Then it times ``ingest.ChannelStore.ingest_batch``
on the rows that the shipped season's ``run_season`` offers to its channel
(the pub/sub session's deliveries), into a fresh store, ``REPEATS`` times at
each rate limit of ``INGEST_LIMITS_S`` in turn; ``ingest_ref_s`` holds each
limit's reference-scaled median and its accepted count. Last, it times one
run of the tier-1 test command (``suite_s``) and keeps pytest's closing
summary line.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, as in perfbench; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
REPEATS = 15
KERNEL_RUNS = 5
# the shipped channel's limit, and the wet, lossy variant's
INGEST_LIMITS_S = (15.0, 600.0)


def _calibrate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_calibrate", ROOT / "perfbench" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _suite() -> tuple[float, str]:
    """Seconds for one tier-1 run (see ROADMAP.md) and its summary line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    return seconds, (done.stdout.strip().splitlines() or [""])[-1]


def _summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": statistics.median(times), "min": min(times),
            "iqr": q3 - q1, "n": len(times)}


def _sensor_arm_seasons(scenario) -> dict:
    """The seasons whose sensor arm ``kernel_ref_s`` times, by name."""
    wet = dataclasses.replace(scenario.season, dry_season=False,
                              rain_probability=0.3, rain_mean_mm=8.0)
    return {
        "shipped": scenario,
        "wet": dataclasses.replace(scenario, season=wet),
        "frequent_irrigation": dataclasses.replace(
            scenario,
            irrigation=dataclasses.replace(scenario.irrigation, cap_mm=2.0),
            thresholds=dataclasses.replace(scenario.thresholds,
                                           soil_moisture_trigger_pct=40.0)),
    }


def _offered_rows(pipeline, ingest, scenario) -> tuple:
    """The arguments after ``self`` of the one ``ingest_batch`` call that
    an in-memory ``run_season`` of ``scenario`` makes."""
    batch = ingest.ChannelStore.ingest_batch
    with mock.patch.object(ingest.ChannelStore, "ingest_batch",
                           autospec=True, side_effect=batch) as spy:
        pipeline.run_season(scenario)
    return spy.call_args.args[1:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args()

    import numpy
    import yaml

    from agrisim import decision, ingest, pipeline
    from agrisim.fieldsim import generate_weather
    from agrisim.scenario import load_default_scenario

    calibrate = _calibrate()
    scenario = load_default_scenario()
    before = [calibrate.kernel_seconds() for _ in range(KERNEL_RUNS)]
    times = {"with_artifacts": [], "in_memory": []}
    stage_times = {kind: {} for kind in times}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(REPEATS + 1):
            for kind in times:
                out_dir = Path(tmp) / f"{kind}-{i}" \
                    if kind == "with_artifacts" else None
                t0 = time.perf_counter()
                out = pipeline.run_season(scenario, out_dir=out_dir)
                if i:  # the first run of each kind is the warm-up
                    times[kind].append(time.perf_counter() - t0)
                    for stage, seconds in out.timings.items():
                        stage_times[kind].setdefault(stage, []).append(seconds)
    seasons = _sensor_arm_seasons(scenario)
    arm_times = {name: [] for name in seasons}
    events = {}
    for i in range(REPEATS + 1):
        for name, season in seasons.items():
            t0 = time.perf_counter()
            drivers = decision.season_drivers(
                season, generate_weather(season.season, season.seed),
                season.seed)
            arm = decision.schedule_season(decision.SENSOR_DRIVEN, season,
                                           drivers)
            if i:
                arm_times[name].append(time.perf_counter() - t0)
            events[name] = arm.event_count
    rows = _offered_rows(pipeline, ingest, scenario)
    ingest_times = {limit: [] for limit in INGEST_LIMITS_S}
    accepted = {}
    for i in range(REPEATS + 1):
        for limit in INGEST_LIMITS_S:
            store = ingest.ChannelStore(dataclasses.replace(
                scenario.channel, min_update_interval_s=limit))
            t0 = time.perf_counter()
            mask = store.ingest_batch(*rows)
            if i:
                ingest_times[limit].append(time.perf_counter() - t0)
            accepted[limit] = int(mask.sum())
    after = [calibrate.kernel_seconds() for _ in range(KERNEL_RUNS)]
    suite_s, suite_summary = _suite()

    e2e = {kind: _summary(t) for kind, t in times.items()}
    kernel = before + after
    k_before, k_after = statistics.median(before), statistics.median(after)
    result = {
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "pyyaml": yaml.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "machine": platform.machine()},
        "scenario": scenario.name, "seed": scenario.seed,
        "e2e_s": e2e,
        "reference_kernel_s": {
            "median_before": k_before, "median_after": k_after,
            "min": min(kernel), "n": len(kernel),
            "reference_s": calibrate.REFERENCE_S},
        "e2e_ref_s": {kind: calibrate.to_reference(s["median"], k_before,
                                                   k_after)
                      for kind, s in e2e.items()},
        "layers": {
            kind: {stage: calibrate.to_reference(statistics.median(t),
                                                 k_before, k_after)
                   for stage, t in stages.items()}
            for kind, stages in stage_times.items()},
        "kernel_ref_s": {
            name: {"sensor_arm_median": calibrate.to_reference(
                       statistics.median(t), k_before, k_after),
                   "events": events[name], "n": len(t)}
            for name, t in arm_times.items()},
        "ingest_ref_s": {
            f"limit_{limit:g}s": {
                "median": calibrate.to_reference(statistics.median(t),
                                                 k_before, k_after),
                "rows": len(rows[2]), "accepted": accepted[limit],
                "n": len(t)}
            for limit, t in ingest_times.items()},
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in (ROOT / "src" / "agrisim").rglob("*.py")),
        "suite_s": suite_s, "suite_summary": suite_summary,
    }
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
