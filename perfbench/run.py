"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload table1-diag --seed 0 --seconds 35 --trace 0

Run from the root of a specgrad source checkout (``src/`` and ``plans/``
beside this directory). The workload process pins OpenBLAS and OpenMP to
one thread before numpy is imported, because BB-type iteration counts
change with the BLAS thread count. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics from a traced
run. Every human-readable line comes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Outputs (result CSVs, spans, provenance) go to
``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("table1-diag", "laplace60", "box-profiles")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5

# A fresh interpreter imports specgrad and loads and validates the plan:
# what every `specgrad bench` invocation pays before its first job.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import specgrad; "
    "specgrad.ExperimentPlan.load(sys.argv[2])"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",), help="'all' runs each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shrunken grid, for the benchmark's own tests")
    ap.add_argument("--iter-cap", type=int, default=None, help="override the plan's iteration cap")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.iter_cap is not None and args.iter_cap < 1:
        ap.error("--iter-cap must be positive")
    return args


def setup_seconds(src: Path, plan_path: Path) -> float:
    """Median wall time of fresh processes that import specgrad and load the plan."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(src), str(plan_path)],
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def openblas_threads() -> list[int]:
    """Thread count each loaded OpenBLAS reports (empty if none is found)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    counts = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return counts


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(root: Path, args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_shifts_inputs": args.workload == "table1-diag",
        "load": "closed loop, one client, cells run serially (run_plan threads=1)",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV} | {"openblas_reported": openblas_threads()},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }


def run_all(argv: list[str]) -> int:
    """Run every workload in its own process; the last line merges their
    results, with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child_argv = [a.replace("all", workload) if a in ("all", "--workload=all") else a for a in argv]
        proc = subprocess.run(
            [sys.executable, __file__, *child_argv], stdout=subprocess.PIPE, text=True, timeout=900
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "specgrad" / "__init__.py").is_file() or not (root / "plans").is_dir():
        print(f"perfbench: {root} has no specgrad source tree (src/specgrad, plans/)", file=sys.stderr)
        return 2

    # Pin numerics before numpy is first imported; children inherit this.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(src))
    import specgrad

    if Path(specgrad.__file__).resolve().parent != (src / "specgrad").resolve():
        print(f"perfbench: imported specgrad from {specgrad.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    out_dir = root / "perfbench" / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    desc = workloads.plan_desc(root, args.workload, args.seed, smoke=args.smoke, iter_cap=args.iter_cap)
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(desc, indent=1))
    prov = provenance(root, args)
    (out_dir / "provenance.json").write_text(json.dumps(prov, indent=1))

    setup = None if args.trace else setup_seconds(src, plan_path)
    res = workloads.measure(args.workload, desc, out_dir, args.seconds, bool(args.trace))

    if args.trace:
        metrics = res["metrics"]
        spans.write_csv(res["spans"], str(out_dir / "spans.csv"))
    else:
        # The mean, not the median: when the core clock switches between two
        # speeds for long spells, a run's median jumps between the modes
        # while the mean follows the share of slow time (see README.md).
        wall = statistics.fmean(res["plain_walls"])
        iters = sum(int(r["iters"]) for r in res["rows"])
        metrics = {
            "wall_s": (wall, "s"),
            "cell_iters_per_s": (iters / wall, "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} reps={res['reps']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for note in res.get("missing", []):
        print(f"untraced (attribute not found): {note}")
    for note in res["violations"][:20]:
        print(f"violation {note}")
    print("walls_s untraced=" + json.dumps(res["plain_walls"]) + " traced=" + json.dumps(res.get("traced_walls", [])))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {int(value) if unit == 'count' else float(value)!r} {unit}")
    print(f"metric fail_frac {failed / attempted!r} ratio")
    print(f"verdict correct={str(correct).lower()} attempted={attempted} failed={failed}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"result_trace{args.trace}.json").write_text(json.dumps(result | {"provenance": prov}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
