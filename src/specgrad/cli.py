"""Command-line interface.

Subcommands:

* ``gen``      write a problem descriptor JSON
* ``solve``    run one strategy on one problem, trace CSV out
* ``bench``    execute a plan file
* ``profile``  performance profiles from result CSVs
* ``diag``     spectral stepsize history series for plotting

Exit codes: 0 success, 1 usage/plan error, 2 run failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bench, qp_engine
from .generators import _MODES, gen_instance
from .problem import QuadraticProblem
from .qp_engine import StrategySpec


class _UsageError(Exception):
    pass


class _RunFailed(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="specgrad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a problem descriptor JSON")
    p.add_argument("--family", help="TP1 or SET1..SET5")
    p.add_argument("--kind", choices=["laplace3d"], help="non-family problem kind")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--kappa", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=_MODES, default="diag")
    p.add_argument("--variant", choices=["A", "B"], default="A")
    p.add_argument("--N", type=int, default=60)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="run one strategy on one problem")
    p.add_argument("--problem", required=True, help="problem descriptor JSON")
    p.add_argument("--strategy", required=True)
    p.add_argument("--h", type=int, default=10)
    p.add_argument("--s", type=int, default=30)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--seed", type=int, help="override the problem descriptor seed")
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--start", choices=["auto", "ones", "zeros"], default="auto")
    p.add_argument("--out", required=True, help="trace CSV path")

    p = sub.add_parser("bench", help="run a plan file")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True, help="per-run results CSV")
    p.add_argument("--summary-out", help="aggregated means CSV")

    p = sub.add_parser("profile", help="performance profiles from result CSVs")
    p.add_argument("results", nargs="+", help="result CSV files")
    p.add_argument("--metric", choices=["iterations", "func_evals"], default="iterations")
    p.add_argument("--out", required=True)

    p = sub.add_parser("diag", help="spectral stepsize history series")
    p.add_argument("--problem", required=True)
    p.add_argument("--strategy", default="AOPT")
    p.add_argument("--h", type=int, default=10)
    p.add_argument("--s", type=int, default=30)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--out", required=True)

    return parser


def _load_instance(path: str, seed: int | None, start: str) -> tuple[QuadraticProblem, np.ndarray]:
    """Problem and start of a descriptor file; ``start`` ones or zeros
    replaces the descriptor's own start (``auto``)."""
    with open(path) as fh:
        problem, x1, _ = gen_instance(json.load(fh), seed)
    if start != "auto":
        x1 = (np.ones if start == "ones" else np.zeros)(problem.dim)
    return problem, x1


def _run(problem: QuadraticProblem, x1: np.ndarray, spec: StrategySpec, **kwargs) -> qp_engine.RunTrace:
    """``qp_engine.run``, with a failed run raised as ``_RunFailed``."""
    trace = qp_engine.run(problem, x1, spec, **kwargs)
    if trace.failure:
        raise _RunFailed(trace.failure)
    return trace


def _cmd_gen(args) -> int:
    if args.kind == "laplace3d":
        desc = {"kind": "laplace3d", "variant": args.variant, "N": args.N}
    else:
        if not args.family:
            raise _UsageError("gen needs --family or --kind laplace3d")
        desc = {
            "family": args.family.upper(),
            "n": args.n,
            "kappa": args.kappa if args.kappa is not None else float(args.n),
            "seed": args.seed,
            "mode": args.mode,
        }
    with open(args.out, "w") as fh:
        json.dump(desc, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_solve(args) -> int:
    problem, x1 = _load_instance(args.problem, args.seed, args.start)
    spec = StrategySpec(method=args.strategy, h=args.h, s=args.s, tau=args.tau)
    trace = _run(problem, x1, spec, eps=args.eps, max_iter=args.max_iter)
    trace.to_csv(args.out)
    print(json.dumps(trace.summary()))
    return 0


def _cmd_bench(args) -> int:
    plan = bench.ExperimentPlan.load(args.plan)
    rows = bench.run_plan(plan)
    bench.write_results_csv(rows, args.out)
    if args.summary_out:
        summary = bench.summarize(rows)
        with open(args.summary_out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=bench.SUMMARY_FIELDS)
            writer.writeheader()
            writer.writerows(summary)
    print(f"{len(rows)} runs -> {args.out}")
    return 0


def _cmd_profile(args) -> int:
    entries = []
    for path in args.results:
        for row in bench.read_results_csv(path):
            problem_id = "|".join(
                (row["family"], row["kappa"], row["eps"], row["seed"])
            )
            solver = row["method"]
            if row.get("h"):
                solver += f"({row['h']},{row['s']})"
            value = float(row["iters"] if args.metric == "iterations" else row["func_evals"])
            solved = row["termination"] == "gradient_tol"
            entries.append((problem_id, solver, value, solved))
    if not entries:
        raise _UsageError("no result rows found")
    profile = bench.performance_profile(entries, metric=args.metric)
    profile.to_csv(args.out)
    return 0


def _cmd_diag(args) -> int:
    problem, x1 = _load_instance(args.problem, args.seed, "auto")
    spec = StrategySpec(method=args.strategy, h=args.h, s=args.s)
    trace = _run(problem, x1, spec, eps=args.eps, max_iter=args.max_iter, retain_gradients=True)
    series = qp_engine.stepsize_history_diagnostic(trace, problem)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "bar_alpha", "hat_alpha"])
        for k, bar, hat in series:
            writer.writerow([k, repr(bar), repr(hat)])
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "diag": _cmd_diag,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
