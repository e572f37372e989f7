"""Golden record of quadratic-engine trajectories.

    PYTHONPATH=src python tests/qp_golden.py > tests/data/qp_golden.json

The record covers every (instance, strategy) trajectory of
``plans/table1.json`` (TP1, n = 1000, ten seeds, twenty NEWS0/NEWS
strategies in blocks of twenty rows), run as ``bench.run_plan`` runs it:
one ``run_many`` call per instance, at the plan's smallest tolerance and
cap. It also covers Laplace A and B at N = 33 (n = 35,937, so every block
is one row) under the four strategies of perfbench's ``laplace60``
workload, at its tolerance of 1e-6, and the first seed of each of
``plans/table3.json``'s fifteen descriptors (the ``diag_equiv`` twins of
the rotated problems, whose start and linear term pass through the
Householder reflectors) under DY at 1e-6. For each trajectory it holds the
iteration count, the termination and a sha256 over the f, gnorm and alpha
columns and ``x_final`` (their float64 bytes) and the branch labels. A
change that keeps the record keeps every bit of these trajectories.
Quadratic rows do not depend on the BLAS thread count (see
``qp_engine``), so the record holds under any.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from specgrad import qp_engine
from specgrad.generators import gen_instance
from specgrad.qp_engine import StrategySpec

PLANS = Path(__file__).resolve().parent.parent / "plans"
LAPLACE_STRATEGIES = (
    {"method": "NEWS", "h": 10, "s": 80},
    {"method": "NEWS", "h": 20, "s": 20},
    {"method": "DY"},
    {"method": "ABBMIN2", "tau": 0.9, "abb_window": 5},
)
LAPLACE_EPS, LAPLACE_CAP = 1e-6, 20000
TABLE3_STRATEGIES, TABLE3_EPS = ({"method": "DY"},), 1e-6


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for column in (trace.f, trace.gnorm, trace.alpha, trace.x_final):
        h.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
    h.update("\n".join(trace.branch).encode())
    return h.hexdigest()


def cfg_key(strat: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(strat.items()))


def instance(label: str, desc: dict, seed, strategies, eps: float, cap: int) -> dict:
    """Record of every strategy's trajectory on one instance, keyed
    ``label/strategy``."""
    problem, x1, _ = gen_instance(desc, seed)
    traces = qp_engine.run_many(problem, x1, [StrategySpec(**s) for s in strategies], eps=eps, max_iter=cap)
    return {
        f"{label}/{cfg_key(strat)}": {
            "iterations": trace.iterations,
            "termination": trace.termination,
            "sha256": trace_digest(trace),
        }
        for strat, trace in zip(strategies, traces)
    }


def golden() -> dict:
    plan = json.loads((PLANS / "table1.json").read_text())
    eps, cap = min(plan["tolerances"]), plan["iter_cap"]
    record = {}
    for desc in plan["problems"]:
        for seed in desc["seeds"]:
            record.update(instance(f"{desc['family']}/{seed}", desc, seed, plan["strategies"], eps, cap))
    for variant in ("A", "B"):
        desc = {"kind": "laplace3d", "variant": variant, "N": 33}
        record.update(instance(f"LAPLACE-{variant}/N33", desc, None, LAPLACE_STRATEGIES, LAPLACE_EPS, LAPLACE_CAP))
    plan = json.loads((PLANS / "table3.json").read_text())
    for desc in plan["problems"]:
        seed = desc["seeds"][0]
        label = f"{desc['family']}/kappa={desc['kappa']:g}/{desc['mode']}/{seed}"
        record.update(instance(label, desc, seed, TABLE3_STRATEGIES, TABLE3_EPS, plan["iter_cap"]))
    return record


if __name__ == "__main__":
    import sys

    json.dump(golden(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
