#!/usr/bin/env python3
"""Time ``pipeline.run_season`` end to end in this process and write the
figures as JSON.

    python3 scripts/bench.py BENCH_<n>.json

After one warm-up run of each kind, it times ``REPEATS`` runs of the shipped
scenario with artifacts (to a fresh temporary directory each) and as many in
memory, alternating the two. Because the speed of a shared host drifts, it
times the reference kernel of ``perfbench/calibrate.py`` (imported
read-only) ``KERNEL_RUNS`` times before and after those runs. Last, it times
one tier-1 test run. The JSON holds:

- ``env``, ``scenario``, ``seed``: versions and cores; scenario name, seed;
- ``e2e_s``: each kind's run-time median, minimum, IQR and count (``n``);
- ``reference_kernel_s``: the kernel's median before and after, minimum,
  run count and ``calibrate.REFERENCE_S``;
- ``e2e_ref_s`` and ``layers``: each kind's median run time and the median
  of each stage of ``RunOutput.timings``, through ``calibrate.to_reference``;
- ``src_loc``: the line count of ``src/agrisim/**/*.py``;
- ``suite_s``, ``suite_summary``: the tier-1 run's seconds and last line.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, as in perfbench; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
REPEATS = 15
KERNEL_RUNS = 5


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args()

    import numpy
    import yaml

    from agrisim import pipeline
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
    after = [calibrate.kernel_seconds() for _ in range(KERNEL_RUNS)]
    suite_s, suite_summary = _suite()

    e2e = {kind: _summary(t) for kind, t in times.items()}
    kernel = before + after
    k_before, k_after = statistics.median(before), statistics.median(after)

    def scaled(t: list[float]) -> float:
        return calibrate.to_reference(statistics.median(t), k_before, k_after)

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
        "e2e_ref_s": {kind: scaled(t) for kind, t in times.items()},
        "layers": {kind: {stage: scaled(t) for stage, t in stages.items()}
                   for kind, stages in stage_times.items()},
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in (ROOT / "src" / "agrisim").rglob("*.py")),
        "suite_s": suite_s, "suite_summary": suite_summary,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
