"""Every quadratic trajectory of ``plans/table1.json``, of the Laplace
N = 33 cases and of the first seed of each ``plans/table3.json``
descriptor under DY keeps its golden record (see ``qp_golden.py``)."""

import json
from pathlib import Path

from qp_golden import golden

WANT = json.loads((Path(__file__).resolve().parent / "data" / "qp_golden.json").read_text())


def test_quadratic_trajectories_match_the_golden_record():
    got = golden()
    assert len(WANT) == 223 and set(got) == set(WANT)
    assert [k for k in WANT if got[k] != WANT[k]] == []
