"""Golden record of the bound-constrained runs of ``plans/profiles.json``.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/box_golden.py > tests/data/box_golden.json

For every (suite problem, strategy) cell of the plan the record holds the
iteration, function and gradient counts, the termination and a sha256
over the whole trace: the f, gnorm, pg_inf and alpha columns (their
float64 bytes), the branch labels and the line-search records. A change
that keeps the record keeps every bit of every box trajectory. Rows of
``boxqp-set5-rot-nonneg`` depend on the BLAS thread count, so the record
is only comparable with OpenBLAS pinned to one thread.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from specgrad import box_solver
from specgrad.suite import make_suite

PLAN = Path(__file__).resolve().parent.parent / "plans" / "profiles.json"


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for column in (trace.f, trace.gnorm, trace.pg_inf, trace.alpha):
        h.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
    h.update("\n".join(trace.branch).encode())
    h.update(json.dumps(trace.ls_records, sort_keys=True).encode())
    return h.hexdigest()


def cell(entry, strat: dict, eps: float, iter_cap: int) -> dict:
    cfg = box_solver.BoxRunConfig(**{"eps_pg": eps, "max_iter": iter_cap, **strat})
    trace = box_solver.solve_box(entry.oracle_factory(), entry.bounds, entry.x1, cfg)
    return {
        "iterations": trace.iterations,
        "func_evals": trace.func_evals,
        "grad_evals": trace.grad_evals,
        "termination": trace.termination,
        "sha256": trace_digest(trace),
    }


def cfg_key(strat: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(strat.items()))


def golden() -> dict:
    plan = json.loads(PLAN.read_text())
    return {
        f"{entry.name}/{cfg_key(strat)}/{eps:g}": cell(entry, strat, eps, plan["iter_cap"])
        for entry in make_suite()
        for strat in plan["strategies"]
        for eps in plan["tolerances"]
    }


if __name__ == "__main__":
    json.dump(golden(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
