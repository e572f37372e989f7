"""The three plan-grid workloads, their correctness checks and layer metrics.

Each workload is a plan run serially through specgrad's public harness:
``bench.run_plan`` -> ``bench.write_results_csv`` (and, for
``box-profiles``, ``bench.performance_profile`` written to CSV). One
client runs the cells back to back (a closed loop), so the grid's wall
time is the cost a user pays to reproduce a table or a profile.

``Instrumentation`` wraps the functions each layer exposes and turns the
recorded spans into per-layer metrics; it also checks every converged
result against the true residual, outside the program's spans.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import statistics
import time
from collections import defaultdict
from functools import partial
from pathlib import Path

import numpy as np
from specgrad import bench, box_solver, problem, qp_engine, stepsize

from spans import CHECK_SPAN, Tracer, layer_self_time, root_time, summarize_spans

# Thinned table5 strategies: both variants keep DY, ABBMIN2 and two NEWS
# (h, s) pairs; NEWS(10,80) is the cell whose count moves with BLAS threads.
LAPLACE_STRATEGIES = (
    {"method": "NEWS", "h": 10, "s": 80},
    {"method": "NEWS", "h": 20, "s": 20},
    {"method": "DY"},
    {"method": "ABBMIN2", "tau": 0.9, "abb_window": 5},
)

SUITE_SIZE = 12  # make_suite documents twelve fixed problems

# A converged cell passes when its recomputed stopping quantity is at most
# eps * RESIDUAL_SLACK. The slack only absorbs rounding between the solver's
# recurrence and the recomputation; a drifted recurrence misses by orders of
# magnitude.
RESIDUAL_SLACK = 1.01


def plan_desc(root: Path, workload: str, seed: int, smoke: bool = False, iter_cap: int | None = None) -> dict:
    """Plan descriptor for a workload. ``smoke`` shrinks the grid for tests;
    ``iter_cap`` overrides the plan's cap (a tiny cap forces failures)."""
    plans = root / "plans"
    if workload == "table1-diag":
        desc = json.loads((plans / "table1.json").read_text())
        for p in desc["problems"]:
            p["seeds"] = [s + seed for s in p["seeds"]]
        if smoke:
            desc["problems"] = [dict(p, seeds=p["seeds"][:2]) for p in desc["problems"]]
            desc["strategies"] = desc["strategies"][:2]
    elif workload == "laplace60":
        desc = json.loads((plans / "table5.json").read_text())
        desc["problems"] = [p for p in desc["problems"] if p.get("N") == 60]
        desc["strategies"] = [s for s in desc["strategies"] if s in LAPLACE_STRATEGIES]
        desc["tolerances"] = [1e-6]
        if smoke:
            desc["problems"] = [dict(p, N=12) for p in desc["problems"]]
            desc["strategies"] = desc["strategies"][:2]
    elif workload == "box-profiles":
        desc = json.loads((plans / "profiles.json").read_text())
        if smoke:
            desc["strategies"] = [desc["strategies"][0], desc["strategies"][-1]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if iter_cap is not None:
        desc["iter_cap"] = iter_cap
    return desc


def expected_cells(desc: dict) -> int:
    """Cell count of a plan, counted from its descriptor alone."""
    per_strategy = 0
    for p in desc["problems"]:
        if p.get("kind") == "box_suite":
            per_strategy += SUITE_SIZE
        else:
            per_strategy += len(p.get("seeds", [p.get("seed", 0)]))
    return per_strategy * len(desc["strategies"]) * len(desc["tolerances"])


def _row_key(row: dict) -> tuple:
    return tuple(str(row[k]) for k in bench.RESULT_FIELDS)


class Grid:
    """One workload's plan, run end to end through the public harness."""

    def __init__(self, desc: dict, out_dir: Path, profile: bool):
        self.plan = bench.ExperimentPlan.from_json(desc)
        self.expected = expected_cells(desc)
        self.csv_path = out_dir / "results.csv"
        self.profile_paths = (
            {m: out_dir / f"profile_{m}.csv" for m in ("iterations", "func_evals")} if profile else {}
        )

    def run(self) -> tuple[float, list[dict]]:
        """Wall seconds from the first job to the written CSV (and profiles)."""
        t0 = time.perf_counter()
        rows = bench.run_plan(self.plan)
        bench.write_results_csv(rows, str(self.csv_path))
        for metric, path in self.profile_paths.items():
            column = "iters" if metric == "iterations" else "func_evals"
            entries = [
                (r["family"], r["method"], float(r[column]), r["termination"] == "gradient_tol")
                for r in rows
            ]
            bench.performance_profile(entries, metric=metric).to_csv(str(path))
        return time.perf_counter() - t0, rows

    def failed_cells(self, rows: list[dict], keys: list[tuple], reference: list[tuple] | None) -> int:
        """Cells that are missing, did not converge, were written wrongly, or
        differ from the first repetition of the same grid."""
        failed = sum(1 for r in rows if r["termination"] != "gradient_tol")
        failed += max(0, self.expected - len(rows))
        with open(self.csv_path, newline="") as fh:
            written = [tuple(r[k] for k in bench.RESULT_FIELDS) for r in csv.DictReader(fh)]
        failed += sum(1 for a, b in zip(written, keys) if a != b) + abs(len(written) - len(keys))
        failed += sum(self._profile_mismatches(rows, path) for path in self.profile_paths.values())
        if reference is not None:
            failed += sum(1 for a, b in zip(keys, reference) if a != b) + abs(len(keys) - len(reference))
        return min(failed, self.expected)


    @staticmethod
    def _profile_mismatches(rows: list[dict], path: Path) -> int:
        """Solvers whose profile does not end at the share of problems they solved."""
        with open(path, newline="") as fh:
            top: dict[str, float] = {}
            for r in csv.DictReader(fh):
                top[r["solver"]] = max(top.get(r["solver"], 0.0), float(r["rho"]))
        problems = {r["family"] for r in rows}
        solved: dict[str, set] = defaultdict(set)
        for r in rows:
            solved[r["method"]].update([r["family"]] if r["termination"] == "gradient_tol" else [])
        return sum(
            1
            for m in {r["method"] for r in rows}
            if not math.isclose(top.get(m, -1.0), len(solved[m]) / len(problems))
        )


def _functions_from(namespace, module_name: str) -> list[str]:
    return sorted(
        k for k, v in vars(namespace).items() if inspect.isfunction(v) and v.__module__ == module_name
    )


class Instrumentation:
    """Spans around every layer's public functions plus the counts that the
    spans alone do not give (iterations, evaluations, instances, bytes)."""

    def __init__(self, workload: str):
        self.tracer = Tracer(workload)
        self.counts: dict[str, int] = defaultdict(int)
        self.instances: set = set()
        self.violations: list[str] = []
        self._apply = problem.QuadraticProblem.apply
        self._grad = problem.ObjectiveOracle.grad
        self._run_sig = inspect.signature(qp_engine.run)
        self._box_sig = inspect.signature(box_solver.solve_box)

    def install(self) -> None:
        wrap = self.tracer.wrap
        wrap(bench, "run_plan", "bench.run_plan", after=self._after_run_plan)
        # cell boundary: one call per (instance, strategy, tolerance) job
        wrap(bench, "_execute", "bench.cell", starts_cell=True)
        wrap(bench, "write_results_csv", "bench.write_results_csv")
        wrap(bench.ProfileData, "to_csv", "bench.write_profile_csv")
        wrap(bench, "performance_profile", "bench.performance_profile")
        for name in _functions_from(bench, "specgrad.generators"):
            # gen_* functions build problem instances; the rest are formulas
            builds = partial(self._after_build, name) if name.startswith("gen_") else None
            wrap(bench, name, f"generators.{name}", after=builds)
        for name in _functions_from(bench, "specgrad.suite"):
            wrap(bench, name, f"suite.{name}")

        wrap(problem.QuadraticProblem, "apply", "problem.apply", after=self._after_apply)
        wrap(problem.BoxBounds, "project", "problem.project")
        wrap(problem.ObjectiveOracle, "f", "problem.oracle.f")
        wrap(problem.ObjectiveOracle, "grad", "problem.oracle.grad")

        wrap(qp_engine, "run", "qp_engine.run", after=self._after_qp_run)
        wrap(box_solver, "solve_box", "box_solver.solve_box", after=self._after_solve_box)
        wrap(box_solver, "solve_spg", "box_solver.solve_spg")

        wrap(stepsize.StepsizeMemory, "push", "stepsize.push")
        for namespace in (qp_engine, box_solver, stepsize):
            for name in _functions_from(namespace, "specgrad.stepsize"):
                wrap(namespace, name, f"stepsize.{name}")

    def restore(self) -> None:
        self.tracer.restore()

    def reset(self) -> None:
        self.tracer.reset()
        self.counts.clear()
        self.instances.clear()
        self.violations.clear()

    # --- hooks, run after the wrapped call's span has closed -------------

    def _after_run_plan(self, args, kwargs, rows) -> None:
        self.counts["jobs"] += len(rows)

    def _after_build(self, name, args, kwargs, result) -> None:
        self.counts["builds"] += 1
        self.instances.add(repr((name, args, sorted(kwargs.items()))))

    def _after_apply(self, args, kwargs, result) -> None:
        p = args[0]
        h = p.hessian
        operator = h.nbytes if isinstance(h, np.ndarray) else h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        self.counts["apply_bytes"] += operator + 16 * p.dim

    def _after_qp_run(self, args, kwargs, trace) -> None:
        self.counts["qp_iters"] += trace.iterations
        if trace.termination == "gradient_tol":
            bound = self._run_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            p, x1, eps = bound.arguments["p"], bound.arguments["x1"], bound.arguments["eps"]
            x1 = np.asarray(x1, dtype=np.float64)
            ok, ratio = self.tracer.check_span(self._qp_residual, p, x1, trace.x_final, eps)
            if not ok:
                self.violations.append(f"qp cell {self.tracer.cell}: |Ax-b|/|g1| = {ratio:.3e} > eps {eps:g}")

    def _qp_residual(self, p, x1, x, eps):
        r1 = float(np.linalg.norm(self._apply(p, x1) - p.b))
        rf = float(np.linalg.norm(self._apply(p, x) - p.b))
        ratio = rf / r1 if r1 > 0.0 else (0.0 if rf == 0.0 else math.inf)
        return ratio <= eps * RESIDUAL_SLACK, ratio

    def _after_solve_box(self, args, kwargs, trace) -> None:
        bound = self._box_sig.bind(*args, **kwargs)
        oracle, bounds, cfg = bound.arguments["oracle"], bound.arguments["bounds"], bound.arguments["cfg"]
        c = self.counts
        c["box_iters"] += trace.iterations
        c["box_func_evals"] += trace.func_evals
        c["box_grad_evals"] += trace.grad_evals
        if cfg.variant != "SPG":  # SPG keeps no stepsize memory
            c["memory_iters"] += trace.iterations
        for rec in trace.ls_records or ():
            c["box_backtracks"] += round(-math.log2(rec["lam"]))
            c["box_unit_steps"] += bool(rec["unit"])
        if trace.termination == "gradient_tol":
            ok, pg = self.tracer.check_span(self._box_pg, oracle, bounds, trace.x_final, cfg.eps_pg)
            if not ok:
                self.violations.append(f"box cell {self.tracer.cell}: pg sup-norm {pg:.3e} > eps {cfg.eps_pg:g}")

    def _box_pg(self, oracle, bounds, x, eps_pg):
        g = self._grad(oracle, x)
        pg = float(np.max(np.abs(np.clip(x - g, bounds.lower, bounds.upper) - x))) if x.size else 0.0
        return pg <= eps_pg * RESIDUAL_SLACK, pg

    # --- per-layer metrics of one traced repetition ----------------------

    def layer_metrics(self, wall: float, rows: list[dict]) -> dict[str, tuple[float, str]]:
        spans = self.tracer.spans
        s = summarize_spans(spans)
        c = self.counts

        def calls(*names):
            return sum(s[n]["calls"] for n in names if n in s)

        def total(*names):
            return sum(s[n]["total"] for n in names if n in s)

        def self_time(*names):
            return sum(s[n]["self"] for n in names if n in s)

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        gen_calls = sum(v["calls"] for k, v in s.items() if k.startswith("generators."))
        apply_calls = calls("problem.apply")
        qp_iters = c["qp_iters"]
        box_iters = c["box_iters"]
        traced_wall = wall - total(CHECK_SPAN)
        return {
            "bench.jobs": (c["jobs"], "count"),
            "bench.self_s": (self_time("bench.run_plan", "bench.cell"), "s"),
            "bench.csv_s": (total("bench.write_results_csv", "bench.write_profile_csv"), "s"),
            "bench.profile_s": (total("bench.performance_profile"), "s"),
            "generators.calls": (gen_calls, "count"),
            "generators.s": (layer_self_time(s, "generators"), "s"),
            "generators.reuse_ratio": (per(len(self.instances), c["builds"]), "ratio"),
            "suite.make_suite_s": (total("suite.make_suite"), "s"),
            "problem.apply.calls": (apply_calls, "count"),
            "problem.apply.s": (total("problem.apply"), "s"),
            "problem.apply.us_per_call": (per(total("problem.apply"), apply_calls, 1e6), "us"),
            "problem.apply.bytes_computed": (c["apply_bytes"], "B"),
            "problem.project.calls": (calls("problem.project"), "count"),
            "problem.project.s": (total("problem.project"), "s"),
            "problem.oracle.calls": (calls("problem.oracle.f", "problem.oracle.grad"), "count"),
            "problem.oracle.s": (total("problem.oracle.f", "problem.oracle.grad"), "s"),
            "qp_engine.runs": (calls("qp_engine.run"), "count"),
            "qp_engine.iters": (qp_iters, "count"),
            "qp_engine.self_s": (self_time("qp_engine.run"), "s"),
            "qp_engine.self_us_per_iter": (per(self_time("qp_engine.run"), qp_iters, 1e6), "us"),
            "qp_engine.useful_iter_ratio": (per(useful_qp_iterations(rows), qp_iters), "ratio"),
            "box_solver.runs": (calls("box_solver.solve_box"), "count"),
            "box_solver.iters": (box_iters, "count"),
            "box_solver.func_evals": (c["box_func_evals"], "count"),
            "box_solver.grad_evals": (c["box_grad_evals"], "count"),
            "box_solver.backtracks": (c["box_backtracks"], "count"),
            "box_solver.unit_step_ratio": (per(c["box_unit_steps"], box_iters), "ratio"),
            "box_solver.self_s": (layer_self_time(s, "box_solver"), "s"),
            "box_solver.us_per_iter": (per(total("box_solver.solve_box"), box_iters, 1e6), "us"),
            "stepsize.push.calls": (calls("stepsize.push"), "count"),
            "stepsize.s": (layer_self_time(s, "stepsize"), "s"),
            "stepsize.modified_y_per_iter": (per(calls("stepsize.modified_y"), c["memory_iters"]), "calls/iter"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.unattributed_frac": (per(wall - root_time(spans), traced_wall), "ratio"),
        }


def useful_qp_iterations(rows: list[dict]) -> int:
    """Iterations a grid needs if each (instance, strategy) runs once, at
    its smallest tolerance: the largest count over its tolerances."""
    best: dict[tuple, int] = {}
    for r in rows:
        if r["method"] in qp_engine.METHODS:
            key = tuple(str(r[k]) for k in ("family", "kappa", "seed", "method", "h", "s"))
            best[key] = max(best.get(key, 0), int(r["iters"]))
    return sum(best.values())


def measure(workload: str, desc: dict, out_dir: Path, seconds: float, trace: bool) -> dict:
    """Run the grid back to back for about ``seconds``.

    Untraced runs repeat the grid at least three times. Traced runs
    alternate untraced and traced repetitions, so the tracing overhead is
    measured in the same process; per-layer values are medians over the
    traced repetitions.
    """
    grid = Grid(desc, out_dir, profile=workload == "box-profiles")
    inst = Instrumentation(workload) if trace else None
    plain, traced, layers = [], [], []
    reference = None
    attempted = failed = 0
    violations: list[str] = []
    last_spans: list[tuple] = []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        tracing = trace and rep % 2 == 1
        if tracing:
            inst.reset()
            inst.install()
            try:
                wall, rows = grid.run()
            finally:
                inst.restore()
            layers.append(inst.layer_metrics(wall, rows))
            traced.append(layers[-1]["trace.wall_s"][0])
            violations.extend(inst.violations)
            failed += len(inst.violations)
            last_spans = list(inst.tracer.spans)
        else:
            wall, rows = grid.run()
            plain.append(wall)
        keys = [_row_key(r) for r in rows]
        failed += grid.failed_cells(rows, keys, reference)
        reference = reference or keys
        attempted += grid.expected
        rep += 1
        enough = (plain and traced) if trace else len(plain) >= 3
        last = traced[-1] if tracing else plain[-1]
        if enough and time.perf_counter() + last > deadline:
            break

    result = {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "violations": violations,
        "reps": len(plain) + len(traced),
        "rows": rows,
        "plain_walls": plain,
    }
    if trace:
        names = layers[0].keys()
        metrics = {n: (statistics.median(l[n][0] for l in layers), layers[0][n][1]) for n in names}
        base = statistics.fmean(plain)
        metrics["trace_overhead_frac"] = ((statistics.fmean(traced) - base) / base, "ratio")
        result["metrics"] = metrics
        result["missing"] = sorted(set(inst.tracer.missing))
        result["spans"] = last_spans
        result["traced_walls"] = traced
    return result
