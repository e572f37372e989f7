"""Write a BENCH_<pr>.json record: alternating benchmark runs of two trees.

    python3 benchmarks/perf.py --parent HEAD~1 --change . --seed 5 --pairs 10 --out BENCH_5.json \\
        --note "what the change does"

``--parent`` and ``--change`` each name a source tree (a directory holding
``src/``, ``plans/`` and ``perfbench/``) or a git revision of this
repository, which is exported with ``git archive`` into a temporary
directory. For every workload the script runs ``--pairs`` pairs of
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, each run
in a fresh process from its own tree; odd pairs (1, 3, ...) run the
parent first and even pairs the change first, so a drift of the host
clock falls on both sides alike. Both sides run their own copy of
``perfbench/``, so the two trees must hold the same benchmark.

Per end-to-end metric the record holds each side's runs (in pair order),
median and quartiles, the pairs the change won (ties count for neither),
the change/parent ratio of the medians and the parent's interquartile
range; per workload it holds both sides' ``fail_frac`` per run. The
provenance (core count, numpy, scipy and OpenBLAS versions, the BLAS
thread count) comes from perfbench's own provenance line.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="source tree or git revision")
    ap.add_argument("--change", default=".", help="source tree or git revision (default: this tree)")
    ap.add_argument("--workloads", help="comma-separated (default: every workload of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--smoke", action="store_true", help="shrunken grids, for this script's own test")
    ap.add_argument("--note", default="", help="one line on what the change does")
    ap.add_argument("--out", required=True, help="path of the BENCH_<pr>.json to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    return args


def materialize(spec: str, scratch: Path) -> tuple[Path, str]:
    """(tree, label) for a directory, labelled by its name, or, failing
    that, a git revision, labelled by its commit; the record's ``commits``
    also gives each side's source digest."""
    path = Path(spec)
    if (path / "perfbench" / "run.py").is_file():
        return path.resolve(), path.resolve().name
    git = ["git", "-C", str(ROOT)]
    verify = git + ["rev-parse", "--verify", f"{spec}^{{commit}}"]
    rev = subprocess.run(verify, capture_output=True, text=True, timeout=60)
    if rev.returncode != 0:
        raise SystemExit(f"perf: {spec!r} is neither a source tree nor a git revision")
    commit = rev.stdout.strip()
    archive = subprocess.run(git + ["archive", "--format=tar", commit], capture_output=True, timeout=120)
    tree = scratch / commit
    tree.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree, commit


def run_once(tree: Path, workload: str, args) -> dict:
    """One perfbench run: its result line plus its provenance line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"] + ["--smoke"] * args.smoke
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=20 * args.seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perf: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    prov = [json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance ")]
    return result | {"provenance": prov[0] if prov else {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, med, q3


def summarize_metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    out = {"unit": spec["unit"], "better": spec["better"]}
    for side, runs in (("parent", parent), ("change", change)):
        q1, med, q3 = quartiles(runs)
        out[side] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        out[side]["runs"] = [round(v, 4) for v in runs]
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    out["change_wins"] = f"{wins}/{len(parent)}"
    out["median_change_over_parent"] = round(out["change"]["median"] / out["parent"]["median"], 4)
    out["parent_iqr"] = round(out["parent"]["q3"] - out["parent"]["q1"], 4)
    return out


def provenance(prov: dict) -> dict:
    threads = prov.get("threads", {})
    return {
        "cores": prov.get("nproc"),
        "machine": prov.get("machine"),
        "python": prov.get("python"),
        "numpy": prov.get("numpy"),
        "scipy": prov.get("scipy"),
        "openblas": prov.get("blas"),
        "blas_threads": threads.get("openblas_reported"),
        "blas_threads_env": {k: v for k, v in threads.items() if k != "openblas_reported"},
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: materialize(getattr(args, side), Path(scratch)) for side in ("parent", "change")}
        record = {
            "change": args.note,
            "parent": trees["parent"][1],
            "change_tree": trees["change"][1],
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} "
            "--trace 0" + " --smoke" * args.smoke,
            "method": "alternating parent/change pairs (odd pairs parent first), each run in a fresh process "
            "from its own tree; every value is one run's perfbench metric (wall_s is the mean over that run's "
            "grid repetitions); runs are listed in pair order, medians and quartiles (inclusive) are over runs",
            "workloads": {},
        }
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side][0], workload, args))
                    wall = runs[side][-1]["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i + 1}/{args.pairs} {side} wall_s={wall:.4f}", file=sys.stderr)
            first = runs["parent"][0]["provenance"]
            record.setdefault("provenance", provenance(first))
            record.setdefault("commits", {
                side: {"git_commit": runs[side][0]["provenance"].get("git_commit"),
                       "src_sha256": runs[side][0]["provenance"].get("src_sha256")} for side in runs
            })
            record["workloads"][workload] = {
                "seed": args.seed,
                "pairs": args.pairs,
                **{f"{side}_fail_frac": [r["failed"] / r["attempted"] for r in runs[side]] for side in runs},
                "metrics": {
                    m["name"]: summarize_metric(
                        m, *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in runs)
                    )
                    for m in metrics
                },
            }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
