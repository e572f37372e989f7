"""Smoke test of the BENCH writer: one shrunken pair of one workload."""

import json
import subprocess
import sys
from pathlib import Path

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
