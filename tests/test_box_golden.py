"""Every box trajectory of ``plans/profiles.json`` keeps its golden record,
and the rows ``run_plan`` writes for the plan carry its counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
WANT = json.loads((HERE / "data" / "box_golden.json").read_text())


def box_golden(*args) -> dict:
    # one BLAS thread: the rotated n = 100 suite Hessian depends on the count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(HERE / "box_golden.py"), *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_profiles_cells_match_the_golden_record():
    got = box_golden()
    assert len(WANT) == 48 and set(got) == set(WANT)
    assert [k for k in WANT if got[k] != WANT[k]] == []


def test_profiles_plan_rows_carry_the_golden_counts():
    # the plan's rows are read off one trajectory per (problem, strategy)
    got = box_golden("--plan-rows")
    assert set(got) == set(WANT)
    fields = ("iterations", "func_evals", "termination")
    assert [k for k in WANT if got[k] != {f: WANT[k][f] for f in fields}] == []
