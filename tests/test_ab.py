"""``scripts/ab.py``'s figures and its claim rule, on canned runs, and
where its sides run, in a throwaway repository with a stub benchmark."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "scripts" / "ab.py"
OP = "season-dry.op_p50_ref_s"
RATE = "season-dry.sim_days_per_ref_s"
# median 1.0, IQR 0.015
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def figures(ab, metric, unit, **sides):
    """``compare``'s figures for one metric, from one perfbench summary per
    run of each side."""
    return ab.compare({
        side: [{"metrics": {metric: {"value": v, "unit": unit}}}
               for v in values]
        for side, values in sides.items()})[metric]


def test_gain_in_nine_of_ten_pairs_past_the_iqr_meets_the_rule(ab):
    f = figures(ab, OP, "s", parent=PARENT, change=[0.90] * 9 + [1.05])
    assert (f["pairs_won"], f["pairs"], f["claim_met"]) == (9, 10, True)
    assert (f["parent_median"], f["change_median"]) == (1.0, 0.90)
    assert f["parent_iqr"] == pytest.approx(0.015)
    assert f["delta_pct"] == pytest.approx(-10.0)
    assert "null_median" not in f and "beats_null" not in f


@pytest.mark.parametrize("change, won", [
    ([0.90] * 8 + [1.05] * 2, 8),
    ([v - 0.001 for v in PARENT], 10),  # every pair, inside the IQR
])
def test_eight_pairs_or_a_move_inside_the_iqr_fails_the_rule(ab, change,
                                                              won):
    f = figures(ab, OP, "s", parent=PARENT, change=change)
    assert (f["pairs_won"], f["claim_met"]) == (won, False)


@pytest.mark.parametrize("null, beaten", [([101.0] * 10, True),
                                          ([110.0] * 10, False)])
def test_higher_is_better_against_the_parent_and_the_null(ab, null, beaten):
    parent = [100.0 + k % 3 for k in range(10)]
    f = figures(ab, RATE, "1/s", parent=parent, change=[110.0] * 10,
                null=null)
    assert (f["better"], f["pairs_won"], f["claim_met"]) == \
        ("higher", 10, True)
    assert (f["null_median"], f["beats_null"]) == (null[0], beaten)
    f = figures(ab, RATE, "1/s", parent=parent, change=[90.0] * 10)
    assert (f["pairs_won"], f["claim_met"]) == (0, False)


def test_workload_choices_are_the_benchmarks_workloads(ab, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(sys, "argv", ["ab.py", "--help"])
    with pytest.raises(SystemExit):
        ab.main()
    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert "{" + ",".join(["all", *names]) + "}" in capsys.readouterr().out


# a stand-in for perfbench/run.py: it logs the tree it runs from and what
# that tree holds, then prints a one-metric summary, or fails with AB_VOID
STUB = """import json, os, sys
from pathlib import Path
tree = Path(__file__).resolve().parent.parent
pkg = tree / "src" / "pkg"
with open(os.environ["AB_LOG"], "a") as fh:
    print(json.dumps({"tree": str(tree), "cwd": os.getcwd(),
                      "mod": (pkg / "mod.py").read_text(),
                      "new": (pkg / "new.py").exists(),
                      "ignored": (pkg / "junk.log").exists()}), file=fh)
if os.environ.get("AB_VOID"):
    sys.exit(1)
print(json.dumps({"failed": 0, "attempted": 1, "metrics": {
    "season-dry.peak_rss_mb": {"value": 48.0, "unit": "MB"}}}))
"""
MOD = "X = 1\n"


def git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, check=True,
                          capture_output=True, text=True).stdout


def user_state(repo):
    return {args: git(repo, *args) for args in [
        ("status", "--porcelain"), ("diff", "--cached"),
        ("rev-parse", "HEAD"), ("stash", "list")]}


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A repository with ``ab.py``, ``BENCHMARK.json`` and a stub benchmark
    committed, and no git identity configured. Its working tree holds a
    modified tracked module, a staged file, an untracked module and an
    ignored file."""
    for var in [v for v in os.environ if v.startswith("GIT_")]:
        monkeypatch.delenv(var)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    repo = tmp_path.resolve() / "repo"
    (repo / "scripts").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "src" / "pkg").mkdir(parents=True)
    shutil.copy(AB, repo / "scripts" / "ab.py")
    shutil.copy(ROOT / "BENCHMARK.json", repo / "BENCHMARK.json")
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "src" / "pkg" / "mod.py").write_text(MOD)
    (repo / ".gitignore").write_text("/.perfbench/\n*.log\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
        "base")
    (repo / "src" / "pkg" / "mod.py").write_text("X = 2\n")
    (repo / "staged.txt").write_text("staged\n")
    git(repo, "add", "staged.txt")
    (repo / "src" / "pkg" / "new.py").write_text("Y = 1\n")
    (repo / "src" / "pkg" / "junk.log").write_text("ignored\n")
    return repo


def test_snapshot_holds_the_working_tree_and_leaves_the_user_state(
        ab, repo, monkeypatch):
    monkeypatch.setattr(ab, "ROOT", repo)
    before = user_state(repo)
    commit = ab._snapshot()
    assert user_state(repo) == before
    assert git(repo, "rev-parse", f"{commit}^") == before["rev-parse", "HEAD"]
    assert sorted(git(repo, "ls-tree", "-r", "--name-only", commit).split()) \
        == [".gitignore", "BENCHMARK.json", "perfbench/run.py",
            "scripts/ab.py", "src/pkg/mod.py", "src/pkg/new.py",
            "staged.txt"]
    assert git(repo, "show", f"{commit}:src/pkg/mod.py") == "X = 2\n"


@pytest.mark.parametrize("void", [False, True])
def test_every_side_runs_from_an_equal_length_sibling_worktree(ab, repo,
                                                                void):
    """Parent, change and null each run from their own worktree, also when
    a killed run left one at a side's path, and a normal or a void run
    leaves only the main tree and the user's state as it found them. An
    untracked file under ``perfbench/`` makes a second benchmark."""
    if void:  # an untracked perfbench/ file is a second benchmark
        (repo / "perfbench" / "extra.py").write_text("")
    before = user_state(repo)
    git(repo, "worktree", "add", "--detach", ".perfbench/ab-1", "HEAD")
    log = repo.parent / "log.jsonl"
    env = {**os.environ, "AB_LOG": str(log), "AB_VOID": "1" if void else ""}
    done = subprocess.run(
        [sys.executable, "scripts/ab.py", "HEAD", "--workload", "season-dry",
         "--pairs", "2", "--null"],
        cwd=repo, env=env, capture_output=True, text=True)

    assert done.returncode == (1 if void else 0), done.stderr
    assert ("two benchmarks" in done.stdout) == void
    assert git(repo, "worktree", "list", "--porcelain").count("worktree ") \
        == 1
    assert user_state(repo) == before
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert all(run["cwd"] == run["tree"] for run in runs)
    held = {run["tree"]: (run["mod"], run["new"], run["ignored"])
            for run in runs}
    trees = [Path(tree) for tree in held]
    assert repo not in trees
    assert {tree.parent for tree in trees} == {repo / ".perfbench"}
    assert len({len(str(tree)) for tree in trees}) == 1
    if void:
        assert len(runs) == 1
        return
    assert len(runs) == 6
    assert sorted(held.values()) == [(MOD, False, False),
                                     (MOD + ab.NULL_LINE, False, False),
                                     ("X = 2\n", True, False)]
