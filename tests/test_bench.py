import json
import math

import numpy as np
import pytest

from specgrad.bench import (
    ExperimentPlan,
    RESULT_FIELDS,
    performance_profile,
    read_results_csv,
    run_plan,
    summarize,
    write_results_csv,
)


def tiny_plan(**overrides):
    desc = {
        "problems": [{"family": "TP1", "n": 40, "kappa": 100.0, "seeds": [1, 2], "mode": "diag"}],
        "strategies": [{"method": "SD"}, {"method": "NEWS", "h": 2, "s": 3}],
        "tolerances": [1e-6],
        "iter_cap": 5000,
    }
    desc.update(overrides)
    return ExperimentPlan.from_json(desc)


def projected(rows):
    return [{k: str(r[k]) for k in RESULT_FIELDS} for r in rows]


class TestPlanValidation:
    def test_empty_problems(self):
        with pytest.raises(ValueError):
            tiny_plan(problems=[])

    def test_empty_strategies(self):
        with pytest.raises(ValueError):
            tiny_plan(strategies=[])

    def test_empty_tolerances(self):
        with pytest.raises(ValueError):
            tiny_plan(tolerances=[])

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            tiny_plan(strategies=[{"method": "CG"}])

    def test_strategy_shape(self):
        with pytest.raises(ValueError):
            tiny_plan(strategies=[{"algorithm": "SD"}])

    def test_missing_key(self):
        with pytest.raises(ValueError):
            ExperimentPlan.from_json({"problems": []})


class TestRunPlan:
    def test_grid_rows(self):
        rows = run_plan(tiny_plan())
        assert len(rows) == 4  # 2 seeds x 2 strategies x 1 tolerance
        assert all(r["termination"] == "gradient_tol" for r in rows)
        assert all(r["family"] == "TP1" for r in rows)

    def test_thread_invariance(self):
        # rows depend only on the plan: a rerun in the same process matches
        plan = tiny_plan()
        assert projected(run_plan(plan)) == projected(run_plan(plan))

    def test_thread_invariance_box_suite(self):
        plan = ExperimentPlan.from_json(
            {
                "problems": [{"kind": "box_suite"}],
                "strategies": [{"variant": "A1_BB2"}],
                "tolerances": [1e-6],
                "iter_cap": 20000,
            }
        )
        assert projected(run_plan(plan)) == projected(run_plan(plan))

    def test_duplicate_strategy_rows_identical(self):
        rows = run_plan(tiny_plan(strategies=[{"method": "SD"}, {"method": "SD"}]))
        assert projected(rows)[0::2] == projected(rows)[1::2]

    def test_laplace_entry(self):
        plan = tiny_plan(problems=[{"kind": "laplace3d", "variant": "A", "N": 3}])
        rows = run_plan(plan)
        assert rows[0]["family"] == "LAPLACE-A"
        assert rows[0]["kappa"] > 1.0

    @pytest.mark.parametrize("mode", ["diag", "diag_equiv", "dense"])
    def test_problem_modes(self, mode):
        plan = tiny_plan(
            problems=[{"family": "SET1", "n": 30, "kappa": 100.0, "seeds": [1], "mode": mode}],
            strategies=[{"method": "NEWS", "h": 2, "s": 3}],
        )
        rows = run_plan(plan)
        assert len(rows) == 1
        assert rows[0]["termination"] == "gradient_tol"

    def test_box_suite_requires_box_strategies(self):
        plan = tiny_plan(problems=[{"kind": "box_suite"}])
        with pytest.raises(ValueError):
            run_plan(plan)

    def test_quadratic_requires_method(self):
        plan = tiny_plan(strategies=[{"variant": "A1"}])
        with pytest.raises(ValueError):
            run_plan(plan)

    def test_csv_round_trip(self, tmp_path):
        rows = run_plan(tiny_plan())
        path = tmp_path / "results.csv"
        write_results_csv(rows, str(path))
        back = read_results_csv(str(path))
        assert [tuple(r[k] for k in RESULT_FIELDS) for r in back] == [
            tuple(str(r[k]) for k in RESULT_FIELDS) for r in rows
        ]

    def test_summarize_means(self):
        rows = run_plan(tiny_plan())
        summary = summarize(rows)
        assert len(summary) == 2
        for group in summary:
            assert group["runs"] == 2
            assert group["failures"] == 0
            assert group["mean_iters"] == round(group["mean_iters"], 1)


class TestPerformanceProfile:
    def test_single_solver_all_solved(self):
        prof = performance_profile([("p1", "A", 10.0, True), ("p2", "A", 3.0, True)])
        assert prof.rho("A", 1.0) == 1.0
        assert prof.rho("A", 5.0) == 1.0

    def test_two_solver_hand_example(self):
        entries = [
            ("p1", "A", 10.0, True),
            ("p1", "B", 20.0, True),
            ("p2", "A", 30.0, True),
            ("p2", "B", 15.0, True),
        ]
        prof = performance_profile(entries)
        assert prof.rho("A", 1.0) == 0.5
        assert prof.rho("B", 1.0) == 0.5
        assert prof.rho("A", 2.0) == 1.0
        assert prof.rho("B", 2.0) == 1.0
        assert prof.rho("A", 1.5) == 0.5

    def test_unsolved_plateau(self):
        entries = [
            ("p1", "A", 10.0, True),
            ("p1", "B", 12.0, True),
            ("p2", "A", 30.0, True),
            ("p2", "B", math.inf, False),
        ]
        prof = performance_profile(entries)
        assert prof.rho("B", 1e9) == 0.5
        assert prof.rho("A", 3.0) == 1.0

    def test_rho_nondecreasing(self):
        rng = np.random.default_rng(0)
        entries = []
        for pid in range(10):
            for solver in "ABC":
                solved = rng.random() > 0.2
                entries.append((f"p{pid}", solver, float(rng.integers(5, 100)), solved))
        prof = performance_profile(entries)
        for solver in prof.solvers:
            rhos = [r for _, r in prof.breakpoints[solver]]
            assert rhos == sorted(rhos)

    def test_csv_output(self, tmp_path):
        prof = performance_profile([("p1", "A", 10.0, True), ("p1", "B", 20.0, True)])
        path = tmp_path / "prof.csv"
        prof.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "solver,tau,rho"
        assert len(lines) >= 3
