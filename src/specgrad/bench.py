"""Experiment runner: problem/strategy grids, result tables, performance profiles.

A plan is a JSON document listing problem descriptors (with seed lists),
strategies, and tolerances. ``run_plan`` executes the grid one problem
instance at a time per process, on one process per CPU of the caller's
affinity mask, and returns rows in a deterministic key order, so result
CSVs are byte-identical from run to run and whatever the CPU count. An
instance is a quadratic (descriptor, seed), built once with its start and
row labels by ``generators.gen_instance`` (the one reader of the problem
descriptor format that plans share with the CLI), or an entry of the
bound-constrained suite. Each of its strategies runs once, at the
smallest tolerance (the quadratic ones in one ``qp_engine.run_many``
call), and every tolerance's row is read off that trajectory. Quadratic
rows do not depend on the BLAS thread count (see ``qp_engine``); box rows
may, so pin it when comparing their CSVs across machines. The
reproducible metrics are iteration and function-evaluation counts.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import box_solver, qp_engine
from .generators import family_spec, gen_instance, laplace_spec
from .qp_engine import HS_METHODS, StrategySpec
from .suite import make_suite

__all__ = [
    "ExperimentPlan",
    "ProfileData",
    "RESULT_FIELDS",
    "SUMMARY_FIELDS",
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

# summarize writes one row per group of result rows equal in these fields
_GROUP_FIELDS = ("family", "kappa", "eps", "method", "h", "s")
SUMMARY_FIELDS = _GROUP_FIELDS + ("mean_iters", "runs", "failures")


@dataclass
class ExperimentPlan:
    """Validated experiment grid.

    ``problems`` entries are either quadratic descriptors in the format
    of ``generators.gen_instance`` ({"family", "n", "kappa", "seeds",
    "mode"} with mode one of diag / diag_equiv / dense, or
    {"kind": "laplace3d", "variant", "N"}) or {"kind": "box_suite"} for
    the bound-constrained suite. Family and laplace3d entries are checked
    at load (see ``generators.family_spec`` and ``laplace_spec``).
    ``strategies`` entries carry {"method", "h", "s", ...} for the
    quadratic engine or {"variant", ...} for the box solvers; every
    strategy must suit every problem entry, and a box entry takes its
    tolerance and cap from the plan (it may not set ``eps_pg`` or
    ``max_iter``). A plan that breaks a rule raises ``ValueError`` at load.
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
                if override := sorted({"eps_pg", "max_iter"} & s.keys()):
                    raise ValueError(f"box strategy sets {override}; the plan's tolerances and iter_cap apply")
                box_solver.BoxRunConfig(**s)
            else:
                raise ValueError(f"strategy entry needs 'method' or 'variant': {s!r}")
        for p in self.problems:
            if "family" in p:
                family_spec(p, seed=0)
            elif p.get("kind") == "laplace3d":
                laplace_spec(p)
            elif p.get("kind") != "box_suite":
                raise ValueError(f"problem entry needs 'family' or a known 'kind': {p!r}")
        box = [p.get("kind") == "box_suite" for p in self.problems]
        if any(box) and any("variant" not in s for s in self.strategies):
            raise ValueError("box_suite problems need box-solver strategies")
        if not all(box) and any("method" not in s for s in self.strategies):
            raise ValueError("quadratic problems need quadratic strategies")
        if not all(box) and not all(0.0 < eps < 1.0 for eps in self.tolerances):
            raise ValueError("quadratic tolerances must lie in (0, 1)")
        if any(math.isnan(eps) for eps in self.tolerances):
            raise ValueError("tolerances must not be NaN")
        if any(box) and not all(0.0 <= eps < math.inf for eps in self.tolerances):
            raise ValueError("box tolerances must be finite and nonnegative")

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


def _plan_jobs(plan: ExperimentPlan) -> list:
    """One job per problem instance: a quadratic (descriptor, seed) or a
    ``box_suite`` entry."""
    jobs = []
    for desc in plan.problems:
        if desc.get("kind") == "box_suite":
            jobs.extend(("box", entry) for entry in make_suite())
        else:
            jobs.extend(("qp", desc, seed) for seed in desc.get("seeds", [desc.get("seed", 0)]))
    return jobs


def _job_size(job) -> int:
    """Dimension of a job's problem, read off its descriptor or suite entry."""
    if job[0] == "box":
        return job[1].x1.size
    desc = job[1]
    return family_spec(desc, seed=0).n if "family" in desc else laplace_spec(desc).N ** 3


def _rows(trace, plan: ExperimentPlan, family, kappa, method: str, h, s, seed) -> list[dict]:
    """Every tolerance's row of one (instance, strategy) trajectory, run
    to the plan's smallest tolerance.

    A row stops at the first iterate whose stop measure meets its eps:
    ||g_i|| <= eps ||g_1||, or pg_inf[i] <= eps for a box trace. A box row
    stopped before the last iterate, or on that of a failed run, counts
    what the shorter run evaluated: 1 + (1 + backtracks) per accepted
    step. A row not met keeps the cap and the trace's termination."""
    box = trace.pg_inf is not None
    measure = trace.pg_inf if box else trace.gnorm
    # a run whose start is nonfinite fails before its first stop test
    started = math.isfinite(trace.f[0]) and math.isfinite(trace.gnorm[0])
    rows = []
    for eps in plan.tolerances:
        tol = eps if box else eps * trace.gnorm[0]
        crossed = np.flatnonzero(measure <= tol) if started else []
        if len(crossed):
            iters, func_evals, termination = int(crossed[0]), trace.func_evals, "gradient_tol"
            if box and (iters < trace.iterations or trace.failure):
                func_evals = 1 + sum(1 + round(-math.log2(rec["lam"])) for rec in trace.ls_records[:iters])
        else:
            iters, func_evals, termination = plan.iter_cap, trace.func_evals, trace.termination
        rows.append({"family": family, "kappa": kappa, "eps": eps, "method": method, "h": h, "s": s, "seed": seed,
                     "iters": iters, "func_evals": func_evals, "termination": termination})
    return rows


def _execute(job, plan: ExperimentPlan) -> list[dict]:
    """Rows of one instance, which is dropped when it returns: each
    strategy runs once, at the smallest tolerance, and every tolerance's
    row is read off that trajectory."""
    eps, cap = min(plan.tolerances), plan.iter_cap
    if job[0] == "qp":
        _, desc, seed = job
        problem, x1, meta = gen_instance(desc, seed)
        specs = [StrategySpec(**strat) for strat in plan.strategies]
        # the strategies run as one lockstep block
        traces = qp_engine.run_many(problem, x1, specs, eps=eps, max_iter=cap)
        rows = []
        for sp, trace in zip(specs, traces):
            h, s = (sp.h, sp.s) if sp.method in HS_METHODS else ("", "")
            rows += _rows(trace, plan, meta["family"], meta["kappa"], sp.method, h, s, seed)
        return rows
    entry, rows = job[1], []
    for strat in plan.strategies:
        c = box_solver.BoxRunConfig(**strat, eps_pg=eps, max_iter=cap)
        h, s = ("", "") if c.variant == "SPG" else (c.h, c.s)
        # the trace goes straight into _rows, so it and its line-search
        # records are freed before the next strategy runs
        rows += _rows(
            box_solver.solve_box(entry.oracle_factory(), entry.bounds, entry.x1, c),
            plan, entry.name, "", c.variant, h, s, 0,
        )
    return rows


def _take_jobs(jobs: list, plan: ExperimentPlan, counter) -> dict[int, list[dict]]:
    """Rows of the jobs this process runs (index -> rows), taking the next
    index from the shared ``counter`` until none is left. An error takes
    every index left, so no process starts another job."""
    done = {}
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(jobs):
            return done
        try:
            done[i] = _execute(jobs[i], plan)
        except BaseException:
            with counter.get_lock():
                counter.value = len(jobs)
            raise


def _child(jobs: list, plan: ExperimentPlan, cpu: int, counter, send) -> None:
    """A forked plan worker: it owns ``cpu``, runs jobs off the shared
    counter and sends back (index -> rows, None), or (None, its error)."""
    os.sched_setaffinity(0, {cpu})
    try:
        send.send((_take_jobs(jobs, plan, counter), None))
    except Exception as exc:
        send.send((None, exc))


def _run_pooled(jobs: list, plan: ExperimentPlan, cpus: list[int]) -> list[list[dict]]:
    """Every job's rows, in job order, from one process per CPU in
    ``cpus``: the caller, pinned to the first, and a forked child pinned
    to each other one take job indices from one shared counter. The
    caller restores its mask, joins every child on every exit path and
    re-raises the first error a child sends, with its own type. Children
    are forked, not spawned: they start at once with the caller's modules
    and jobs (suite entries hold closures, which do not pickle), and only
    rows and errors are pickled back. specgrad runs no thread of its own
    at the fork (``run_many`` joins its threads before it returns)."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    children = []
    try:
        for cpu in cpus[1:]:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(jobs, plan, cpu, counter, send), daemon=True)
            child.start()
            children.append((child, recv))
            send.close()
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[0]})
        try:
            done = _take_jobs(jobs, plan, counter)
        finally:
            os.sched_setaffinity(0, mask)
        for child, recv in children:
            try:
                part, error = recv.recv()
            except EOFError:
                child.join()
                error = RuntimeError(f"plan worker exited with code {child.exitcode} before sending its rows")
            if error is not None:
                raise error
            done.update(part)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return [done[i] for i in range(len(jobs))]


def run_plan(plan: ExperimentPlan) -> list[dict]:
    """One row per (problem instance, strategy, tolerance) cell.

    Each instance is built once and each of its strategies runs once, at
    the smallest tolerance; every tolerance's row is read off that
    trajectory, so it equals a run stopped at that tolerance in
    iterations, function evaluations and termination. Failures inside a
    run are recorded, never raised: ``diverged`` or ``line_search_failed``
    rows carry ``iters = iter_cap``, except a tolerance crossed before the
    failure, which reads ``gradient_tol``. Rows come back sorted by their
    result key.

    The instances run on W = min(CPUs in the caller's affinity mask,
    instances) processes: the caller and W - 1 forked children, each
    pinned to its own CPU of the mask and taking the next instance as it
    finishes one, largest dimension first (stable among equals), so each
    holds one instance at a time. A pinned process sees one CPU, so
    ``qp_engine.run_many`` starts no thread inside a plan. With W = 1 the
    caller runs every instance and nothing forks or pins (``taskset -c 0``
    runs a plan serially). An error in any process starts no further
    instance and is raised here with its own type.
    """
    # largest problems first, so that no long instance starts last and
    # runs alone while the other processes idle
    jobs = sorted(_plan_jobs(plan), key=_job_size, reverse=True)
    cpus = sorted(os.sched_getaffinity(0))[: len(jobs)]
    done = _run_pooled(jobs, plan, cpus) if len(cpus) > 1 else [_execute(job, plan) for job in jobs]
    rows = [row for part in done for row in part]
    rows.sort(key=lambda row: tuple(str(row[k]) for k in RESULT_FIELDS))
    return rows


def summarize(rows: list[dict]) -> list[dict]:
    """Mean iterations per (family, kappa, eps, method, h, s) group, to one
    decimal, plus run/failure counts; each row has the ``SUMMARY_FIELDS``."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(str(row[k]) for k in _GROUP_FIELDS)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        out.append(
            {
                **{k: members[0][k] for k in _GROUP_FIELDS},
                "mean_iters": round(sum(r["iters"] for r in members) / len(members), 1),
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
