#!/usr/bin/env python3
"""Compare perfbench's end-to-end metrics of a git revision and of the
working tree in alternating runs, and write the figures as JSON.

    python3 scripts/ab.py REV [--workload W] [--seed N] [--pairs K] [--null]

``REV`` is checked out with ``git worktree add`` under the git-ignored
``.perfbench/``. The script then runs that tree's ``perfbench/run.py`` and
the working tree's, ``K`` pairs (default 5), alternating which goes first.
With ``--null`` it also runs a third tree in each round: a copy of ``REV``
with one comment line appended to each ``src/`` module that the working
tree changes, because a text-only edit of a module can move a metric by a
few percent. The three go in a rotating order.

For each end-to-end metric it prints and writes to
``.perfbench/ab-<workload>-seed<n>.json``: the parent's median and
interquartile range, the change's median and its delta in percent, the
number of pairs the change wins (by the metric's direction in
``BENCHMARK.json``), and whether it meets the claim rule: better in at
least nine tenths of the pairs, and better in the median by more than the
parent's IQR. With ``--null`` it adds the null variant's median and whether
the change meets the same rule against the null variant. A run in which any
side fails an op, or exits with an error, is void: the script stops, writes
no figures and exits 1. ``REV`` brings its own ``perfbench/``, so when that
directory differs from the working tree's the two sides run two benchmarks,
and the output says so. The worktrees are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
NULL_LINE = "# null variant: this line changes the text, not the code\n"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _perfbench(tree: Path, workload: str, seed: int) -> dict:
    """The last-line summary of one ``perfbench/run.py`` run in ``tree``."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"void: perfbench in {tree} exited "
                         f"{done.returncode}\n{done.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    if summary["failed"]:
        raise SystemExit(f"void: {summary['failed']} of "
                         f"{summary['attempted']} ops failed in {tree}")
    return summary


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def _won(reference: list[float], change: list[float], lower: bool) -> int:
    """The pairs in which the change is better than the reference."""
    return sum((c < r) if lower else (c > r)
               for r, c in zip(reference, change))


def _claim_met(reference: list[float], change: list[float],
               lower: bool) -> bool:
    """The claim rule: the change is better than the reference in at least
    nine tenths of the pairs, and its median is better than the
    reference's by more than the reference's IQR."""
    ref = _spread(reference)
    gain = statistics.median(change) - ref["median"]
    return (10 * _won(reference, change, lower) >= 9 * len(change)
            and (-gain if lower else gain) > ref["iqr"])


def compare(runs: dict[str, list[dict]]) -> dict:
    """Per metric: the parent's median and IQR, the change's median, its
    delta in percent, the pairs it wins and whether it meets the claim rule
    against the parent, and with a null variant, its median and whether the
    change meets the claim rule against it too."""
    better = {m["name"]: m["better"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    figures = {}
    for metric in runs["change"][0]["metrics"]:
        values = {side: [r["metrics"][metric]["value"] for r in side_runs]
                  for side, side_runs in runs.items()}
        lower = better[metric.rsplit(".", 1)[-1]] == "lower"
        parent, change = _spread(values["parent"]), _spread(values["change"])
        figures[metric] = {
            "unit": runs["change"][0]["metrics"][metric]["unit"],
            "better": "lower" if lower else "higher",
            "parent_median": parent["median"], "parent_iqr": parent["iqr"],
            "change_median": change["median"],
            "delta_pct": 100.0 * (change["median"] / parent["median"] - 1.0),
            "pairs_won": _won(values["parent"], values["change"], lower),
            "pairs": len(values["change"]),
            "claim_met": _claim_met(values["parent"], values["change"],
                                    lower),
            "values": values,
        }
        if "null" in values:
            figures[metric]["null_median"] = statistics.median(
                values["null"])
            figures[metric]["beats_null"] = _claim_met(
                values["null"], values["change"], lower)
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision, e.g. HEAD")
    parser.add_argument("--workload", default="all",
                        choices=["all", "season-dry", "season-wet-lossy",
                                 "transport-sweep"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--null", action="store_true",
                        help="also run REV with a comment line appended "
                             "to each src/ module the change touches")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for an IQR")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    rev = _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    out_file = OUT / f"ab-{args.workload}-seed{args.seed}.json"
    out_file.unlink(missing_ok=True)  # a void run leaves no old figures

    OUT.mkdir(exist_ok=True)
    trees = {"parent": OUT / f"ab-{rev[:12]}-parent", "change": ROOT}
    if args.null:
        trees["null"] = OUT / f"ab-{rev[:12]}-null"
    added = [t for side, t in trees.items() if side != "change"]
    try:
        _git("worktree", "prune")  # forget worktrees of an interrupted run
        for tree in added:
            _git("worktree", "add", "--detach", str(tree), rev)
        # the src/ modules that both REV and the working tree hold and
        # that differ between them
        touched = _git("diff", "--name-only", "--diff-filter=M", rev, "--",
                       "src/*.py").split()
        for name in touched if args.null else []:
            with (trees["null"] / name).open("a", encoding="utf-8") as fh:
                fh.write(NULL_LINE)
        two_benchmarks = bool(_git("diff", "--name-only", rev, "--",
                                   "perfbench", "BENCHMARK.json"))
        if two_benchmarks:
            print("note: perfbench/ differs between REV and the working "
                  "tree, so the two sides run two benchmarks")

        sides = list(trees)
        runs = {side: [] for side in sides}
        for k in range(args.pairs):
            order = sides[k % len(sides):] + sides[:k % len(sides)]
            for side in order:
                runs[side].append(_perfbench(trees[side], args.workload,
                                             args.seed))
                print(f"pair {k + 1}/{args.pairs}: {side} done", flush=True)
    finally:
        for tree in added:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(tree)], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)

    figures = compare(runs)
    result = {"rev": rev, "workload": args.workload, "seed": args.seed,
              "pairs": args.pairs, "null": args.null,
              "null_modules": touched if args.null else [],
              "two_benchmarks": two_benchmarks, "metrics": figures}
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"parent {rev[:12]} vs working tree, {args.workload}, seed "
          f"{args.seed}, {args.pairs} pairs")
    for metric, f in figures.items():
        null = (f"  null {f['null_median']:.6g} "
                f"(beaten: {f['beats_null']})" if "null_median" in f
                else "")
        print(f"{metric:34s} parent {f['parent_median']:.6g} "
              f"(IQR {f['parent_iqr']:.3g})  change {f['change_median']:.6g} "
              f"({f['delta_pct']:+.1f}%)  won {f['pairs_won']}/{f['pairs']} "
              f"(claim rule met: {f['claim_met']}){null}")
    print(f"written to {out_file.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
