#!/usr/bin/env python3
"""Compare perfbench's end-to-end metrics of a git revision and of the
working tree in alternating runs, and write the figures as JSON.

    python3 scripts/ab.py REV [--workload W] [--seed N] [--pairs K] [--null]

Every side is a detached ``git worktree`` of a commit at a sibling path of one
length under the git-ignored ``.perfbench/`` (``ab-0`` parent, ``ab-1``
change, ``ab-2`` null), as where a tree sits can move a metric. The change is
a snapshot commit of the working tree with its untracked files, made on a copy
of the index: the index, ``HEAD`` and the stash stay as they are. The sides
run ``perfbench/run.py`` in ``K`` pairs (default 5) in a rotating order.
``--null`` adds ``REV`` with a comment line appended to each ``src/`` module
the change alters, as a text-only edit can move a metric a few percent.

For each end-to-end metric it prints, and writes to
``.perfbench/ab-<workload>-seed<n>.json``, the parent's median and
interquartile range, the change's median and delta in percent, the pairs the
change wins (by the metric's direction in ``BENCHMARK.json``), and whether it
meets the claim rule: better in at least nine tenths of the pairs, and better
in the median by more than the parent's IQR. ``--null`` adds the null
variant's median and whether the change meets the same rule against it. A run
in which any side fails an op, or exits with an error, is void: the script
stops, writes no figures and exits 1. When ``perfbench/`` differs between the
sides they run two benchmarks, and the output says so. The trees are removed
at the end, and before their paths are reused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
NULL_LINE = "# null variant: this line changes the text, not the code\n"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def _snapshot() -> str:
    """A commit of the working tree, untracked files included, made on a
    copy of the index so that the index, ``HEAD`` and the stash stay."""
    with tempfile.TemporaryDirectory() as tmp:
        # commit-tree needs an identity, and a fresh clone may have none
        env = {**os.environ, "GIT_INDEX_FILE": f"{tmp}/index", **{
            f"GIT_{who}_{key}": value for who in ("AUTHOR", "COMMITTER")
            for key, value in (("NAME", "ab.py"), ("EMAIL", "ab@localhost"))}}
        Path(env["GIT_INDEX_FILE"]).write_bytes(
            (ROOT / _git("rev-parse", "--git-path", "index")).read_bytes())
        _git("add", "-A", env=env)
        return _git("commit-tree", _git("write-tree", env=env), "-p", "HEAD",
                    "-m", "ab.py snapshot of the working tree", env=env)


def _remove(tree: Path) -> None:
    for args in (["remove", "--force", str(tree)], ["prune"]):
        subprocess.run(["git", "worktree", *args], cwd=ROOT,
                       capture_output=True)


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
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
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
                        choices=["all", *(w["name"] for w in
                                          BENCHMARK["workloads"])])
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
    commits = {"parent": rev, "change": _snapshot(),
               **({"null": rev} if args.null else {})}
    trees = {side: OUT / f"ab-{k}" for k, side in enumerate(commits)}
    # the src/ modules that both REV and the change hold and that differ
    touched = _git("diff", "--name-only", "--diff-filter=M", rev,
                   commits["change"], "--", "src/*.py").split()
    two_benchmarks = bool(_git("diff", "--name-only", rev, commits["change"],
                               "--", "perfbench", "BENCHMARK.json"))
    if two_benchmarks:
        print("note: perfbench/ differs between REV and the working "
              "tree, so the two sides run two benchmarks")
    OUT.mkdir(exist_ok=True)
    try:
        for side, tree in trees.items():
            _remove(tree)  # a killed run leaves its tree at this path
            _git("worktree", "add", "--detach", str(tree), commits[side])
        for name in touched if args.null else []:
            with (trees["null"] / name).open("a", encoding="utf-8") as fh:
                fh.write(NULL_LINE)
        sides = list(trees)
        runs = {side: [] for side in sides}
        for k in range(args.pairs):
            order = sides[k % len(sides):] + sides[:k % len(sides)]
            for side in order:
                runs[side].append(_perfbench(trees[side], args.workload,
                                             args.seed))
                print(f"pair {k + 1}/{args.pairs}: {side} done", flush=True)
    finally:
        for tree in trees.values():
            _remove(tree)

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
