"""Every box trajectory of ``plans/profiles.json`` keeps its golden record."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")


def test_profiles_cells_match_the_golden_record():
    # one BLAS thread: the rotated n = 100 suite Hessian depends on the count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(HERE / "box_golden.py")], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    want = json.loads((HERE / "data" / "box_golden.json").read_text())
    assert len(want) == 48 and set(got) == set(want)
    assert [k for k in want if got[k] != want[k]] == []
