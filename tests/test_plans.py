import os

import pytest

from specgrad.bench import ExperimentPlan

PLAN_DIR = os.path.join(os.path.dirname(__file__), "..", "plans")


def load(name):
    return ExperimentPlan.load(os.path.join(PLAN_DIR, name))


@pytest.mark.parametrize(
    "name",
    ["table1.json", "table3.json", "table4.json", "table5.json", "table6.json", "profiles.json"],
)
def test_plan_validates(name):
    load(name)


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
