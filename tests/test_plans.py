import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specgrad import bench
from specgrad.bench import ExperimentPlan
from specgrad.cli import main

PLAN_DIR = os.path.join(os.path.dirname(__file__), "..", "plans")
ROOT = Path(__file__).resolve().parent.parent


def load(name):
    return ExperimentPlan.load(os.path.join(PLAN_DIR, name))


@pytest.mark.parametrize(
    "name",
    ["table1.json", "table3.json", "table4.json", "table5.json", "table6.json", "profiles.json"],
)
def test_plan_validates(name):
    load(name)


def test_family_entry_with_seed_and_seeds_is_refused(tmp_path, capsys):
    # a job's seeds come from 'seeds' or 'seed', so an entry setting both
    # would silently drop one
    desc = {
        "problems": [{"family": "SET1", "n": 20, "kappa": 100, "seed": 3, "seeds": [1, 2]}],
        "strategies": [{"method": "SD"}],
        "tolerances": [1e-6],
    }
    with pytest.raises(ValueError, match="both 'seed' and 'seeds'"):
        ExperimentPlan.from_json(desc)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(desc))
    assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'seed'" in err and "'seeds'" in err
    assert not (tmp_path / "r.csv").exists()


def test_table1_grid_shape():
    plan = load("table1.json")
    methods = {(s["method"], s["h"], s["s"]) for s in plan.strategies}
    assert len({m for m, _, _ in methods}) == 2  # two schedule rules
    assert len(methods) == 20  # x ten (h,s) pairs
    assert len(plan.tolerances) == 3
    # cells: 2 methods x 10 pairs x 3 tolerances, 10 seeds each
    seeds = sum(len(p["seeds"]) for p in plan.problems)
    assert seeds * len(plan.strategies) * len(plan.tolerances) == 600


def test_set_tables_cover_families_and_kappas():
    for name in ("table3.json", "table4.json"):
        plan = load(name)
        families = {p["family"] for p in plan.problems}
        kappas = {p["kappa"] for p in plan.problems}
        assert families == {"SET1", "SET2", "SET3", "SET4", "SET5"}
        assert kappas == {1e4, 1e5, 1e6}
        assert all(p["mode"] == "diag_equiv" for p in plan.problems)
        assert {"DY", "ABBMIN2"} <= {s["method"] for s in plan.strategies}
        assert any(s["method"] == "SDC" and (s["h"], s["s"]) == (8, 6) for s in plan.strategies)


def test_laplace_tables_cover_grid_sizes():
    for name in ("table5.json", "table6.json"):
        plan = load(name)
        grids = {(p["variant"], p["N"]) for p in plan.problems}
        assert grids == {(v, n) for v in ("A", "B") for n in (60, 80, 100)}


def test_profiles_plan_is_box_comparison():
    plan = load("profiles.json")
    assert plan.problems == [{"kind": "box_suite"}]
    variants = {s["variant"] for s in plan.strategies}
    assert variants == {"A1", "A1_BB1", "A1_BB2", "SPG"}


# Imports specgrad, loads every plan and runs grids that build no sparse
# Hessian (one n = 200 seed of table1 and table3, and the profiles grid).
# A Laplacian build does not load scipy.sparse either: only reading its
# Hessian, the reference CSR matrix, does. Only run_plan's process pool
# loads multiprocessing, not the import.
COLD_START = """
import json, sys
from pathlib import Path
import specgrad

assert "multiprocessing" not in sys.modules, "import specgrad loaded multiprocessing"

plans = Path(sys.argv[1])
for path in sorted(plans.glob("*.json")):
    specgrad.ExperimentPlan.load(str(path))
for name in ("table1", "table3"):
    desc = json.loads((plans / f"{name}.json").read_text())
    desc["problems"] = [dict(p, n=200, seeds=p["seeds"][:1]) for p in desc["problems"]]
    assert specgrad.run_plan(specgrad.ExperimentPlan.from_json(desc))
assert specgrad.run_plan(specgrad.ExperimentPlan.load(str(plans / "profiles.json")))
assert "scipy.sparse" not in sys.modules, "a run without a sparse Hessian loaded scipy.sparse"
problem, _, _ = specgrad.gen_instance({"kind": "laplace3d", "variant": "A", "N": 5})
assert problem.kind == "stencil" and "scipy.sparse" not in sys.modules, "a Laplacian build loaded scipy.sparse"
assert problem.hessian.shape == (125, 125) and "scipy.sparse" in sys.modules
"""


def test_only_a_sparse_problem_loads_scipy_sparse():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", COLD_START, PLAN_DIR], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr


@pytest.fixture(scope="module")
def workloads():
    """perfbench's workload module, read from its directory and left as it is."""
    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)  # for its own ``spans`` import
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
    return module


def test_laplace60_strategies_each_match_one_table5_strategy(workloads):
    # laplace60 keeps the table5 strategies equal to one of these, so an
    # edit to a table5 entry would shrink the workload, not fail it
    table5 = json.loads((ROOT / "plans" / "table5.json").read_text())["strategies"]
    for strategy in workloads.LAPLACE_STRATEGIES:
        assert table5.count(strategy) == 1, strategy


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("workload, cells", [("table1-diag", 600), ("laplace60", 8), ("box-profiles", 48)])
def test_perfbench_plans_load(workloads, workload, cells, smoke):
    desc = workloads.plan_desc(ROOT, workload, 0, smoke=smoke)
    plan = ExperimentPlan.from_json(desc)
    planned = len(bench._plan_jobs(plan)) * len(plan.strategies) * len(plan.tolerances)
    assert workloads.expected_cells(desc) == planned
    if not smoke:
        assert planned == cells
