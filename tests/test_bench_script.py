"""The record ``scripts/bench.py`` writes, on a short run."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "scripts" / "bench.py"
# the script pins these to one thread when it is loaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
KEYS = {"e2e_ref_s", "e2e_s", "env", "layers", "reference_kernel_s",
        "scenario", "seed", "src_loc", "suite_s", "suite_summary"}


def test_record_holds_the_runs_their_stages_and_nothing_else(
        monkeypatch, tmp_path, default_run):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    # the script prepends src/ to sys.path and registers perfbench's
    # calibrate module; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "perfbench_calibrate", None)
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.REPEATS, bench.KERNEL_RUNS = 2, 1
    bench._suite = lambda: (0.0, "stub")
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", str(out)])

    assert bench.main() == 0
    record = json.loads(out.read_text())
    assert set(record) == KEYS
    stages = list(default_run.timings)
    assert len(stages) == 10 and stages[-1] == "artifacts"
    assert list(record["layers"]["with_artifacts"]) == stages
    assert list(record["layers"]["in_memory"]) == stages[:-1]
    assert {kind: s["n"] for kind, s in record["e2e_s"].items()} == {
        "with_artifacts": 2, "in_memory": 2}
    assert record["src_loc"] == sum(
        len(p.read_text().splitlines())
        for p in (ROOT / "src" / "agrisim").rglob("*.py"))
    assert (record["suite_s"], record["suite_summary"]) == (0.0, "stub")
