"""Experiment runner: problem/strategy grids, result tables, performance profiles.

A plan is a JSON document listing problem descriptors (with seed lists),
strategies, and tolerances. ``run_plan`` executes the full grid serially
and returns rows in a deterministic key order, so result CSVs are
byte-identical from run to run on the same BLAS thread count. Each
quadratic (descriptor, seed) instance is built once, and all of its
strategies run in one ``qp_engine.run_many`` call, one trajectory each, at
the smallest tolerance: every tolerance's row is read off that
trajectory. The reproducible metrics are iteration and
function-evaluation counts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import box_solver, qp_engine
from .generators import (
    LaplaceSpec,
    SpectrumSpec,
    gen_diag_problem,
    gen_laplace3d,
    gen_rotated_equivalent,
    gen_rotated_problem,
    laplace_eigen_bounds,
)
from .problem import QuadraticProblem
from .qp_engine import HS_METHODS, StrategySpec
from .suite import make_suite

__all__ = [
    "ExperimentPlan",
    "ProfileData",
    "RESULT_FIELDS",
    "run_plan",
    "summarize",
    "performance_profile",
    "write_results_csv",
    "read_results_csv",
]

RESULT_FIELDS = (
    "family",
    "kappa",
    "eps",
    "method",
    "h",
    "s",
    "seed",
    "iters",
    "func_evals",
    "termination",
)


@dataclass
class ExperimentPlan:
    """Validated experiment grid.

    ``problems`` entries are either quadratic descriptors
    ({"family", "n", "kappa", "seeds", "mode"} with mode one of
    diag / diag_equiv / dense, or {"kind": "laplace3d", "variant", "N"})
    or {"kind": "box_suite"} for the bound-constrained suite.
    ``strategies`` entries carry {"method", "h", "s", ...} for the
    quadratic engine or {"variant", ...} for the box solvers.
    """

    problems: list[dict]
    strategies: list[dict]
    tolerances: list[float]
    iter_cap: int = 20000

    def __post_init__(self):
        if not self.problems:
            raise ValueError("plan has no problems")
        if not self.strategies:
            raise ValueError("plan has no strategies")
        if not self.tolerances:
            raise ValueError("plan has no tolerances")
        if self.iter_cap < 1:
            raise ValueError("iter_cap must be positive")
        for s in self.strategies:
            if "method" in s:
                StrategySpec(**s)
            elif "variant" in s:
                box_solver.BoxRunConfig(**{k: v for k, v in s.items()})
            else:
                raise ValueError(f"strategy entry needs 'method' or 'variant': {s!r}")
        for p in self.problems:
            if p.get("kind") in ("laplace3d", "box_suite"):
                continue
            if "family" not in p:
                raise ValueError(f"problem entry needs 'family' or a known 'kind': {p!r}")

    @staticmethod
    def from_json(desc: dict) -> "ExperimentPlan":
        try:
            return ExperimentPlan(
                problems=desc["problems"],
                strategies=desc["strategies"],
                tolerances=[float(t) for t in desc["tolerances"]],
                iter_cap=int(desc.get("iter_cap", 20000)),
            )
        except KeyError as exc:
            raise ValueError(f"plan is missing required key {exc}") from exc

    @staticmethod
    def load(path: str) -> "ExperimentPlan":
        with open(path) as fh:
            return ExperimentPlan.from_json(json.load(fh))


def _instantiate_quadratic(desc: dict, seed: int) -> tuple[QuadraticProblem, np.ndarray, dict]:
    """Problem, starting point, and row labels for one quadratic descriptor."""
    if desc.get("kind") == "laplace3d":
        spec = LaplaceSpec(variant=desc["variant"], N=int(desc["N"]))
        problem, _ = gen_laplace3d(spec)
        lam_min, lam_max = laplace_eigen_bounds(spec.N)
        meta = {"family": f"LAPLACE-{spec.variant}", "kappa": lam_max / lam_min}
        return problem, np.zeros(problem.dim), meta

    spec = SpectrumSpec(
        family=desc["family"],
        n=int(desc["n"]),
        kappa=float(desc.get("kappa", desc["n"])),
        seed=seed,
    )
    mode = desc.get("mode", "diag")
    ones = np.ones(spec.n)
    if mode == "diag":
        problem, x1 = gen_diag_problem(spec), ones
    elif mode == "diag_equiv":
        problem, x1 = gen_rotated_equivalent(spec, ones)
    elif mode == "dense":
        problem, x1 = gen_rotated_problem(spec), ones
    else:
        raise ValueError(f"unknown problem mode {mode!r}")
    return problem, x1, {"family": spec.family, "kappa": spec.kappa}


def _run_quadratic_instance(desc: dict, seed: int, plan: ExperimentPlan) -> list[dict]:
    """Rows of every (strategy, tolerance) cell on one built instance,
    whose strategies run as one lockstep block."""
    problem, x1, meta = _instantiate_quadratic(desc, seed)
    specs = [StrategySpec(**strat) for strat in plan.strategies]
    traces = qp_engine.run_many(problem, x1, specs, eps=min(plan.tolerances), max_iter=plan.iter_cap)
    rows = []
    for spec, trace in zip(specs, traces):
        gnorm = trace.gnorm
        for eps in plan.tolerances:
            # the engine's stop test: the first i with ||g_i|| <= eps ||g_1||
            crossed = np.flatnonzero(gnorm <= eps * gnorm[0])
            if crossed.size:
                iters, termination = int(crossed[0]), "gradient_tol"
            else:
                # capped or failed: the row keeps the cap, so summaries count it as before
                iters, termination = plan.iter_cap, trace.termination
            rows.append(
                {
                    "family": meta["family"],
                    "kappa": meta["kappa"],
                    "eps": eps,
                    "method": spec.method,
                    "h": spec.h if spec.method in HS_METHODS else "",
                    "s": spec.s if spec.method in HS_METHODS else "",
                    "seed": seed,
                    "iters": iters,
                    "func_evals": 0,
                    "termination": termination,
                }
            )
    return rows


def _run_one_box(entry, strat: dict, eps: float, iter_cap: int) -> dict:
    params = dict(strat)
    params.setdefault("eps_pg", eps)
    params.setdefault("max_iter", iter_cap)
    cfg = box_solver.BoxRunConfig(**params)
    oracle = entry.oracle_factory()
    try:
        trace = box_solver.solve_box(oracle, entry.bounds, entry.x1, cfg)
        iters, termination, fe = trace.iterations, trace.termination, trace.func_evals
    except box_solver.LineSearchError:
        iters, termination, fe = iter_cap, "line_search_failed", oracle.eval_count
    except qp_engine.DivergedError:
        iters, termination, fe = iter_cap, "diverged", oracle.eval_count
    return {
        "family": entry.name,
        "kappa": "",
        "eps": cfg.eps_pg,
        "method": cfg.variant,
        "h": cfg.h if cfg.variant != "SPG" else "",
        "s": cfg.s if cfg.variant != "SPG" else "",
        "seed": 0,
        "iters": iters,
        "func_evals": fe,
        "termination": termination,
    }


def _plan_jobs(plan: ExperimentPlan) -> list:
    """One job per box (entry, strategy, tolerance) cell and one per
    quadratic (descriptor, seed) instance."""
    jobs = []
    for desc in plan.problems:
        if desc.get("kind") == "box_suite":
            for entry in make_suite():
                for strat in plan.strategies:
                    if "variant" not in strat:
                        raise ValueError("box_suite problems need box-solver strategies")
                    for eps in plan.tolerances:
                        jobs.append(("box", entry, strat, eps))
        else:
            if any("method" not in strat for strat in plan.strategies):
                raise ValueError("quadratic problems need quadratic strategies")
            if not all(0.0 < eps < 1.0 for eps in plan.tolerances):
                raise ValueError("quadratic tolerances must lie in (0, 1)")
            for seed in desc.get("seeds", [desc.get("seed", 0)]):
                jobs.append(("qp", desc, seed))
    return jobs


def _execute(job, plan: ExperimentPlan) -> list[dict]:
    """Rows of one job; a quadratic instance is dropped when it returns."""
    if job[0] == "box":
        _, entry, strat, eps = job
        return [_run_one_box(entry, strat, eps, plan.iter_cap)]
    _, desc, seed = job
    return _run_quadratic_instance(desc, seed, plan)


def _row_key(row: dict) -> tuple:
    return tuple(str(row[k]) for k in RESULT_FIELDS)


def run_plan(plan: ExperimentPlan) -> list[dict]:
    """One row per (problem instance, strategy, tolerance) cell.

    Each quadratic instance is built once and its strategies run as one
    block, one trajectory each, at the smallest tolerance; every
    tolerance's row is read off that trajectory, so it equals a run
    stopped at that tolerance.
    Box cells run once per tolerance. Failures inside a run are recorded,
    never raised: ``diverged`` or ``line_search_failed`` rows carry
    ``iters = iter_cap``, except a tolerance crossed before a divergence,
    which reads ``gradient_tol``. Rows come back sorted by their result key.
    """
    rows = [row for job in _plan_jobs(plan) for row in _execute(job, plan)]
    rows.sort(key=_row_key)
    return rows


def summarize(rows: list[dict]) -> list[dict]:
    """Mean iterations per (family, kappa, eps, method, h, s) group, to one
    decimal, plus run/failure counts."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(str(row[k]) for k in ("family", "kappa", "eps", "method", "h", "s"))
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        mean_iters = round(sum(r["iters"] for r in members) / len(members), 1)
        out.append(
            {
                "family": members[0]["family"],
                "kappa": members[0]["kappa"],
                "eps": members[0]["eps"],
                "method": members[0]["method"],
                "h": members[0]["h"],
                "s": members[0]["s"],
                "mean_iters": mean_iters,
                "runs": len(members),
                "failures": sum(1 for r in members if r["termination"] != "gradient_tol"),
            }
        )
    return out


def write_results_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RESULT_FIELDS), extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def read_results_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class ProfileData:
    """Step functions rho_s(tau): fraction of problems solved within a factor
    tau of the per-problem best metric value."""

    metric: str
    solvers: list[str]
    breakpoints: dict[str, list[tuple[float, float]]] = field(repr=False, default=None)

    def rho(self, solver: str, tau: float) -> float:
        value = 0.0
        for t, r in self.breakpoints[solver]:
            if t <= tau:
                value = r
            else:
                break
        return value

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["solver", "tau", "rho"])
            for solver in self.solvers:
                for tau, rho in self.breakpoints[solver]:
                    writer.writerow([solver, repr(float(tau)), repr(float(rho))])


def performance_profile(
    entries: list[tuple[str, str, float, bool]], metric: str = "iterations"
) -> ProfileData:
    """Build profiles from (problem, solver, value, solved) records.

    The ratio for an unsolved (problem, solver) pair is infinite, so that
    solver's curve plateaus below one.
    """
    problems = sorted({e[0] for e in entries})
    solvers = sorted({e[1] for e in entries})
    values = {(p, s): (v, ok) for p, s, v, ok in entries}

    ratios: dict[str, list[float]] = {s: [] for s in solvers}
    for p in problems:
        best = min(
            (values[(p, s)][0] for s in solvers if (p, s) in values and values[(p, s)][1]),
            default=math.inf,
        )
        for s in solvers:
            v, ok = values.get((p, s), (math.inf, False))
            if not ok or best == math.inf:
                ratios[s].append(math.inf)
            elif best == 0.0:
                ratios[s].append(1.0 if v == 0.0 else math.inf)
            else:
                ratios[s].append(v / best)

    npb = len(problems)
    breakpoints: dict[str, list[tuple[float, float]]] = {}
    for s in solvers:
        finite = sorted(r for r in ratios[s] if r < math.inf)
        pts: list[tuple[float, float]] = []
        count = 0
        for r in finite:
            count += 1
            if pts and pts[-1][0] == r:
                pts[-1] = (r, count / npb)
            else:
                pts.append((r, count / npb))
        if not pts or pts[0][0] > 1.0:
            pts.insert(0, (1.0, sum(1 for r in finite if r <= 1.0) / npb))
        breakpoints[s] = pts
    return ProfileData(metric=metric, solvers=solvers, breakpoints=breakpoints)
