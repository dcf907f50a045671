"""agrisim benchmark: closed-loop workloads, end-to-end metrics, traced run.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

One op runs at a time in this single process, and the next starts when the
previous one returns. Every op passes through the correctness gate; a failed
op is counted and the run goes on. With ``--trace 0`` the end-to-end metrics
are printed; with ``--trace 1`` untraced and traced rounds alternate and the
per-module metrics are printed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results,
the environment and (traced) spans are written under ``.perfbench/``.
See README.md in this directory.
"""

from __future__ import annotations

import os

# the benchmark's own process, and the set-up processes it starts, use one
# BLAS/OpenMP thread; this must happen before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBE = HERE / "setup_probe.py"
PINNED_FILE = HERE / "pinned.json"

SETUP_REPEATS = 7
TAIL_BEYOND = 10           # the tail percentile has this many ops beyond it
MIN_OPS = TAIL_BEYOND + 3  # so the tail is never one of the two fastest ops
SELF_SUM_TOL_S = 1e-6

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref_s": "s",
                    "op_tail_ref_s": "s", "sim_days_per_ref_s": "1/s",
                    "peak_rss_mb": "MB"}


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median time from starting a fresh process to it having imported
    agrisim, parsed the workload's scenario and loaded the message catalog.

    Returns it reference-scaled, by the median of reference-kernel times
    taken between the processes, and in host seconds. The probe reports
    when it is ready, so the polling interval of a wait with a timeout does
    not quantise the result.
    """
    calibrate.kernel_seconds()  # warm-up
    probes, kernels = [], [calibrate.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(PROBE), workload],
                              cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        probes.append(float(done.stdout) - t0)
        kernels.append(calibrate.kernel_seconds())
    host = statistics.median(probes)
    return (host * calibrate.REFERENCE_S / statistics.median(kernels), host)


def run_op(wl, key, pinned: dict, first: dict, tracer, op_id):
    """Run and gate one op. Returns (host seconds or None, problems)."""
    elapsed, problems = None, []
    try:
        call = wl.start(key)
        with tracer.op(op_id) if tracer else nullcontext():
            t0 = perf_counter()
            out = call()
            elapsed = perf_counter() - t0
        digest, problems = wl.check(key, out)
        expected = pinned.get(wl.pin_key(key)) or first.setdefault(key, digest)
        if digest != expected:
            problems.append(f"digest {digest[:12]} != expected {expected[:12]}")
    except Exception as exc:  # one op's failure is counted, never fatal
        problems.append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    return elapsed, problems


def measure(wl, seconds: float, pinned: dict, tracer=None) -> list[dict]:
    """Closed loop over the rounds of ``wl.keys`` until ``seconds`` pass.

    Untraced, it runs at least ``MIN_OPS`` ops and two rounds, so every
    held-out key is rerun. Traced, untraced and traced rounds alternate, in
    equal numbers and whole, at least one of each; a traced op must match
    the untraced digest of its key. The reference kernel runs between every
    two ops; an op's ``ref_seconds`` is its host time scaled by the kernel
    times on either side of it (see calibrate.py).
    """
    ops, first = [], {}
    min_ops = max(MIN_OPS, 2 * len(wl.keys))
    calibrate.kernel_seconds()  # warm-up
    kernel_before = calibrate.kernel_seconds()
    t_start = perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for key in wl.keys:
            elapsed, problems = run_op(wl, key, pinned, first,
                                       tracer if traced else None, len(ops))
            kernel_after = calibrate.kernel_seconds()
            ops.append({"key": key, "traced": traced, "seconds": elapsed,
                        "ref_seconds": calibrate.to_reference(
                            elapsed, kernel_before, kernel_after),
                        "kernel_s": kernel_after, "problems": problems})
            kernel_before = kernel_after
            if (tracer is None and len(ops) >= min_ops
                    and perf_counter() - t_start >= seconds):
                return ops
        rounds += 1
        if (tracer is not None and rounds % 2 == 0
                and perf_counter() - t_start >= seconds):
            return ops


def _times(ops, field: str, traced: bool) -> list[float]:
    return sorted(op[field] for op in ops
                  if op["traced"] == traced and op[field] is not None)


def end_to_end(wl, ops: list[dict], setup: tuple[float, float]
               ) -> tuple[dict, dict]:
    """Gated end-to-end metrics, and notes that carry the host-time
    figures they were scaled from."""
    ref, host = _times(ops, "ref_seconds", False), _times(ops, "seconds", False)
    n = len(ref)
    if not n:  # every op raised; ``correct`` is already false
        return dict.fromkeys(END_TO_END_UNITS, 0.0), {}
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    beyond = n - 1 - tail_index
    days = wl.sim_days_per_op
    values = {
        "setup_s": setup[0],
        "op_p50_ref_s": statistics.median(ref),
        "op_tail_ref_s": ref[tail_index],
        "sim_days_per_ref_s": days / statistics.median(ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh processes; host "
                   f"{setup[1]:.4g} s",
        "op_p50_ref_s": f"median of {n} ops; host {statistics.median(host):.4g} s",
        "op_tail_ref_s": f"p{100.0 * (n - beyond) / n:.0f} of {n} ops, "
                         f"{beyond} beyond it; host {host[tail_index]:.4g} s",
        "sim_days_per_ref_s": f"{days} simulated days per op; host "
                              f"{days / statistics.median(host):.4g} /s",
        "peak_rss_mb": "peak resident set of this process",
    }
    return values, notes


def per_layer(ops: list[dict], tracer, layers) -> tuple[dict, dict, list]:
    """Per-module metrics over the traced ops: times are medians, counts
    are means per op and ratios are taken over summed counts. A metric whose
    spans never ran is absent and reported as 0."""
    summaries = tracer.summaries()
    traced = [summaries[i] for i, op in enumerate(ops)
              if op["traced"] and op["seconds"] is not None]
    if not traced:  # every traced op raised; ``correct`` is already false
        return dict.fromkeys(layers.UNITS, 0.0), {}, list(layers.UNITS)
    setups = [s for op_id, s in summaries.items()
              if str(op_id).startswith("setup")]
    values, notes, absent = {}, {}, []
    for table, source, what in ((layers.PER_OP, traced, "traced ops"),
                                (layers.PER_SETUP, setups, "set-ups")):
        for name, (unit, get) in table.items():
            got = [v for v in map(get, source) if v is not None]
            if not got:
                values[name] = 0
                absent.append(name)
            elif unit == "s":
                values[name] = statistics.median(got)
                notes[name] = f"median of {len(got)} {what}"
            elif unit == "ratio":
                den = sum(d for _, d in got)
                values[name] = sum(n for n, _ in got) / den if den else 0
                notes[name] = f"over {len(got)} {what}"
            else:
                values[name] = sum(got) / len(got)
                notes[name] = f"mean of {len(got)} {what}"
    traced_ref = _times(ops, "ref_seconds", True)
    untraced_ref = _times(ops, "ref_seconds", False)
    values["trace.op_s"] = statistics.median(s.op_s for s in traced)
    values["trace.overhead_s"] = (statistics.median(traced_ref)
                                  - statistics.median(untraced_ref))
    notes["trace.op_s"] = f"median of {len(traced)} traced ops, host time"
    notes["trace.overhead_s"] = (f"median of {len(traced_ref)} traced minus "
                                 f"{len(untraced_ref)} untraced ops, "
                                 f"reference-scaled")
    return values, notes, absent


def environment(seed: int) -> dict:
    import numpy
    import yaml
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "agrisim").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "pyyaml": yaml.__version__, "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "src_lines": src_lines,
            "blas_omp_threads": int(os.environ["OMP_NUM_THREADS"])}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pinned: dict) -> dict:
    import layers
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    setup = None if trace else setup_seconds(name)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[name](seed, Path(tmp))
        try:
            if tracer:
                layers.install(tracer)
                raw = workloads.shipped_mapping()
                for i in range(SETUP_REPEATS):
                    with tracer.op(f"setup-{i}", name="setup"):
                        workloads.build_scenario(name, raw)
            with wl:
                ops = measure(wl, seconds, pinned.get(name, {}), tracer)
        finally:
            if tracer:
                tracer.unwrap_all()

    failed = [op for op in ops if op["problems"]]
    result = {"workload": name, "trace": int(trace),
              "env": environment(seed), "attempted": len(ops),
              "failed": len(failed), "error_rate": len(failed) / len(ops),
              "failures": [{"key": op["key"], "problems": op["problems"]}
                           for op in failed],
              "ops": [{k: op[k] for k in ("key", "traced", "seconds",
                                          "ref_seconds", "kernel_s")}
                      for op in ops]}
    if trace:
        values, notes, absent = per_layer(ops, tracer, layers)
        units = layers.UNITS
        worst = max(s.self_sum_error() for s in tracer.summaries().values())
        result["self_sum_max_error_s"] = worst
        result["self_sum_ok"] = worst < SELF_SUM_TOL_S
        result["absent"] = absent
        result["missing_wrap_targets"] = tracer.missing
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        values, notes = end_to_end(wl, ops, setup)
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in values.items()}
    result["notes"] = notes
    with (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").open(
            "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"{name}  env {json.dumps(result['env'], sort_keys=True)}")
    for metric, m in result["metrics"].items():
        note = result["notes"].get(metric, "")
        print(f"{name}  {metric:26s} {m['value']:>14.6g} {m['unit']:6s} "
              f"{note}")
    print(f"{name}  {'error_rate':26s} {result['error_rate']:>14.6g} "
          f"{'ratio':6s} {result['failed']} of {result['attempted']} ops "
          f"failed")
    for failure in result["failures"][:5]:
        print(f"{name}  FAILED op {failure['key']}: "
              f"{'; '.join(failure['problems'][:3])}")
    if result["trace"]:
        print(f"{name}  self times sum to op time: {result['self_sum_ok']} "
              f"(max error {result['self_sum_max_error_s']:.3g} s)")
        print(f"{name}  absent (never called on this workload, reported "
              f"as 0): {', '.join(result['absent']) or 'none'}")
        if result["missing_wrap_targets"]:
            print(f"{name}  wrap targets missing from agrisim: "
                  f"{', '.join(result['missing_wrap_targets'])}")
        print(f"{name}  no module queues, so no wait times are reported")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "season-dry", "season-wet-lossy",
                                 "transport-sweep"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "agrisim" / "__init__.py").is_file():
        print(f"error: agrisim sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    pinned = json.loads(PINNED_FILE.read_text())
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                            pinned) for n in names]
    for r in results:
        report(r)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 and r.get("self_sum_ok", True)
                       for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): m
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
