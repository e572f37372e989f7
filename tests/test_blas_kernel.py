"""The golden records hold for one BLAS kernel only (ROADMAP item 14).

Each record script runs in a child process whose OpenBLAS takes the
kernels it would pick on an older CPU, with one BLAS thread. Measured on
an AVX-512 host, whose own kernel keeps both records: under either
kernel all 208 entries of ``qp_golden.json`` and 44 of the 48 of
``box_golden.json`` differ, because a ddot kernel of another SIMD width
sums each dot in another order. The tests are strict expected failures:
a dot whose order does not depend on the kernel turns them into passes,
which fail until the mark is removed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")


def _dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS picks its kernels at run time, so that
    ``OPENBLAS_CORETYPE`` selects another one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch(), reason="numpy's OpenBLAS is not built DYNAMIC_ARCH")
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the records hold this host's kernel's bits; another ddot kernel sums in another order",
)
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
@pytest.mark.parametrize("script", ["qp_golden", "box_golden"])
def test_golden_record_under_another_kernel(script, kernel):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(HERE / f"{script}.py")], env=env, capture_output=True, text=True, timeout=300
    )
    # a child that fails to run is an error, not the expected failure
    out.check_returncode()
    want = json.loads((HERE / "data" / f"{script}.json").read_text())
    got = json.loads(out.stdout)
    assert set(got) == set(want)
    assert [k for k in want if got[k] != want[k]] == []
