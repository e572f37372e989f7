"""Smoke test of the BENCH writer: one shrunken pair of one workload, plus
the traced runs per side for the per-layer metrics."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import perf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_one_smoke_pair_writes_the_record(tmp_path):
    out = tmp_path / "BENCH_test.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "perf.py"), "--parent", str(ROOT), "--change", str(ROOT),
         "--workloads", "table1-diag", "--pairs", "1", "--seconds", "1", "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert {"change", "parent", "command", "method", "provenance", "workloads"} <= set(record)
    assert {"cores", "numpy", "scipy", "openblas", "blas_threads"} <= set(record["provenance"])
    workload = record["workloads"]["table1-diag"]
    assert workload["pairs"] == 1 and workload["parent_fail_frac"] == workload["change_fail_frac"] == [0.0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(workload["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in workload["metrics"].values():
        keys = {"unit", "better", "parent", "change", "change_wins", "median_change_over_parent", "parent_iqr"}
        assert keys <= set(metric)
        for side in ("parent", "change"):
            assert set(metric[side]) == {"median", "q1", "q3", "runs"} and len(metric[side]["runs"]) == 1
    assert workload["traced_correct"] == {"parent": True, "change": True}
    layers = workload["per_layer"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for layer in layers.values():
        keys = {"unit", "better", "parent", "change", "change_over_parent"}
        assert keys | {"parent_runs", "change_runs", "parent_range", "change_range"} <= set(layer)
        for side in ("parent", "change"):
            assert isinstance(layer[side], float)
            # the median of the side's traced runs, inside their range
            runs = layer[f"{side}_runs"]
            assert len(runs) == perf.TRACED_RUNS >= 3 and all(isinstance(v, float) for v in runs)
            assert layer[side] == statistics.median(runs)
            assert layer[f"{side}_range"] == [min(runs), max(runs)]
    # both sides run the same tree on one CPU, so every traced run counts
    # every instance: the counts agree from run to run and between sides
    counts = [layer for layer in layers.values() if layer["unit"] == "count"]
    assert all(len(set(layer["parent_runs"] + layer["change_runs"])) == 1 for layer in counts)
    assert all(layer["parent"] == layer["change"] for layer in counts)
    assert layers["problem.apply.calls"]["parent"] > 0


def git(repo, *args):
    cmd = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@localhost", *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60).stdout.strip()


def test_each_side_is_labelled_with_the_commit_it_runs(tmp_path, monkeypatch):
    # runs no benchmark: a committed tree, the same tree modified in each
    # benchmarked part, and a revision exported without its .git
    repo = tmp_path / "repo"
    for part in ("src", "plans", "perfbench"):
        (repo / part).mkdir(parents=True)
        (repo / part / "a.py").write_text("x = 1\n")
    (repo / "perfbench" / "run.py").write_text("")
    (repo / "README.md").write_text("readme\n")
    git(tmp_path, "init", "-q", str(repo))
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "tree")
    head = git(repo, "rev-parse", "HEAD")
    clean = {"git_commit": head, "worktree_modified": False}
    assert perf.materialize(str(repo), tmp_path)[1:] == (repo.name, clean)
    (repo / "README.md").write_text("outside the benchmarked parts\n")
    assert perf.tree_commit(repo) == clean
    modified = {"git_commit": None, "worktree_modified": True}
    for part, edit in (("src", "a.py"), ("plans", "new.json"), ("perfbench", "a.py")):
        (repo / part / edit).write_text("x = 2\n")
        assert perf.tree_commit(repo) == modified, part
        git(repo, "checkout", "-q", "--", ".")
        git(repo, "clean", "-q", "-f", "--", part)
        assert perf.tree_commit(repo) == clean, part
    # a revision is exported by git archive, with no .git of its own
    monkeypatch.setattr(perf, "ROOT", repo)
    tree, label, commit = perf.materialize("HEAD", tmp_path / "scratch")
    assert label == head and commit == clean and not (tree / ".git").exists()
    assert perf.tree_commit(tree) == {"git_commit": None, "worktree_modified": None}
