"""Smoke tests of the benchmark on shrunken grids (``run.py --smoke``).

Run with ``PYTHONPATH=src python -m pytest perfbench``; each test starts
the benchmark as its own process, as the benchmark's users do.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import summarize_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("qp_engine.iters", "box_solver.func_evals", "problem.apply.calls")


def run_bench(*args, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=script.parent.parent, capture_output=True, text=True, timeout=300
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (value, unit)
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result, printed = parse(
        run_bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
    )
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    assert printed["fail_frac"] == ("0.0", "ratio")
    if trace:
        for name in EXACT_COUNTS:
            assert printed[name][0].isdigit(), printed[name]
        # the layer spans' self times cover the traced grid wall time
        assert 0.0 <= result["metrics"]["trace.unattributed_frac"]["value"] < 0.01


@pytest.mark.parametrize("trace", [0, 1])
def test_forced_failure_counts_in_fail_frac(trace):
    result, printed = parse(
        run_bench(
            "--workload", "table1-diag", "--seconds", "1", "--trace", str(trace), "--smoke", "--iter-cap", "2"
        )
    )
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert float(printed["fail_frac"][0]) == result["failed"] / result["attempted"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "laplace60", "--seconds", "1", "--trace", "0", script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_direct_children():
    spans = [
        (0, "bench.run_plan", 0.0, 10.0, -1, "w", -1),
        (1, "qp_engine.run", 1.0, 4.0, 0, "w", 0),
        (2, "problem.apply", 2.0, 3.0, 1, "w", 0),
        (3, "qp_engine.run", 5.0, 6.0, 0, "w", 1),
    ]
    s = summarize_spans(spans)
    assert s["bench.run_plan"]["self"] == 6.0
    assert s["qp_engine.run"] == {"calls": 2, "total": 4.0, "self": 3.0}
    assert sum(v["self"] for v in s.values()) == 10.0
