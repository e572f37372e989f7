import json
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgrad import bench, box_solver, qp_engine
from specgrad.bench import (
    ExperimentPlan,
    RESULT_FIELDS,
    performance_profile,
    read_results_csv,
    run_plan,
    summarize,
    write_results_csv,
)
from specgrad.problem import ObjectiveOracle, QuadraticProblem
from specgrad.qp_engine import StrategySpec
from specgrad.suite import BoundedProblem, make_suite

from reference import free_bounds, rho


def tiny_plan(**overrides):
    desc = {
        "problems": [{"family": "TP1", "n": 40, "kappa": 100.0, "seeds": [1, 2], "mode": "diag"}],
        "strategies": [{"method": "SD"}, {"method": "NEWS", "h": 2, "s": 3}],
        "tolerances": [1e-6],
        "iter_cap": 5000,
    }
    desc.update(overrides)
    return ExperimentPlan.from_json(desc)


BOX_STRATEGIES = [{"variant": "A1"}, {"variant": "A1_BB1"}, {"variant": "A1_BB2"}, {"variant": "SPG", "M": 10}]
SUITE = make_suite()


def box_plan(tolerances, iter_cap, strategies=BOX_STRATEGIES):
    return ExperimentPlan.from_json(
        {"problems": [{"kind": "box_suite"}], "strategies": strategies, "tolerances": tolerances, "iter_cap": iter_cap}
    )


def one_cpu(monkeypatch):
    """Make the caller's affinity mask one CPU, so ``run_plan`` runs every
    instance in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


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

    @pytest.mark.parametrize("kind", ["diag", "dense"])
    def test_family_entry_with_kind(self, kind):
        # a family entry spells its problem form as 'mode'
        with pytest.raises(ValueError, match="'mode'"):
            tiny_plan(problems=[{"family": "SET1", "n": 30, "kappa": 100.0, "seeds": [1], "kind": kind}])

    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "box_suite", "foo": 1},
            {"kind": "laplace3d", "variant": "A", "N": 4, "seeds": [1]},
            {"family": "SET1", "n": 30, "kappa": 100.0, "seeds": [1], "foo": 1},
        ],
        ids=["box_suite", "laplace3d", "family"],
    )
    def test_problem_entry_with_an_unknown_key(self, entry):
        strategy = {"variant": "A1"} if entry.get("kind") == "box_suite" else {"method": "SD"}
        key = "'seeds'" if entry.get("kind") == "laplace3d" else "'foo'"
        with pytest.raises(ValueError, match=rf"sets \[{key}\]; it takes only"):
            tiny_plan(problems=[entry], strategies=[strategy])

    @pytest.mark.parametrize(
        "key, value",
        [("seed", [1, 2]), ("seed", 1.5), ("seed", True), ("seeds", []), ("seeds", [1, 2.0]), ("seeds", 3)],
    )
    def test_seeds_must_be_ints(self, key, value):
        entry = {"family": "SET1", "n": 30, "kappa": 100.0, key: value}
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            tiny_plan(problems=[entry])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            tiny_plan(problems=[{"family": "SET1", "n": 30, "kappa": 100.0, "seeds": [1], "mode": "rotated"}])

    def test_missing_key(self):
        with pytest.raises(ValueError):
            ExperimentPlan.from_json({"problems": []})

    @pytest.mark.parametrize(
        "entry, key", [({"variant": "A"}, "'N'"), ({"N": 4}, "'variant'")], ids=["no-N", "no-variant"]
    )
    def test_laplace_entry_missing_a_key(self, entry, key):
        # checked at load, not when run_plan reaches the entry
        with pytest.raises(ValueError, match=key):
            tiny_plan(problems=[dict(entry, kind="laplace3d")])

    def test_laplace_entry_is_checked_at_load(self):
        with pytest.raises(ValueError, match="variant"):
            tiny_plan(problems=[{"kind": "laplace3d", "variant": "C", "N": 4}])

    @pytest.mark.parametrize(
        "entry", [{"method": "SD", "foo": 1}, {"variant": "A1", "h": 4, "s": 4, "foo": 1}], ids=["quadratic", "box"]
    )
    def test_unknown_strategy_key(self, entry):
        # a box entry's (h, s) is its variant's, not a plan key
        unknown = r"\['foo', 'h', 's'\]" if "variant" in entry else r"\['foo'\]"
        with pytest.raises(ValueError, match=f"sets {unknown}; it takes only"):
            ExperimentPlan.from_json({
                "problems": [{"kind": "box_suite"} if "variant" in entry else tiny_plan().problems[0]],
                "strategies": [entry], "tolerances": [1e-6],
            })

    @pytest.mark.parametrize("key", ["eps_pg", "max_iter"])
    def test_box_strategy_may_not_set_its_own_tolerance_or_cap(self, key):
        # the plan's tolerances and iter_cap label the rows, so they apply to every strategy
        with pytest.raises(ValueError, match=key):
            box_plan([1e-6], 100, strategies=[{"variant": "A1", key: 1e-3 if key == "eps_pg" else 10}])

    def test_box_nan_tolerance(self):
        with pytest.raises(ValueError, match="NaN"):
            box_plan([1e-6, math.nan], 100)

    @pytest.mark.parametrize("eps", [-1e-6, math.inf])
    def test_box_tolerance_negative_or_infinite(self, eps):
        # a negative tolerance is never met, so every row would run to the cap
        with pytest.raises(ValueError, match="box tolerances"):
            box_plan([1e-6, eps], 5)

    def test_box_tolerance_zero_is_accepted(self):
        assert box_plan([0.0], 5).tolerances == [0.0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tolerances", 1e-6), ("tolerances", [True]), ("tolerances", ["1e-6"]),
            ("iter_cap", None), ("iter_cap", True), ("iter_cap", 2.7), ("iter_cap", "5"),
            ("problems", [1]), ("problems", {"family": "TP1", "n": 40}), ("strategies", ["SD"]),
        ],
    )
    def test_plan_keys_have_their_json_types(self, key, value):
        # a ValueError naming the key, not a TypeError, and no run: int() reads true as 1 and 2.7 as 2
        with pytest.raises(ValueError, match=f"'{key}' must be a list of|'{key}' must be an int"):
            tiny_plan(**{key: value})

    @pytest.mark.parametrize("desc", [[], [{"problems": []}], "plan", None], ids=["empty-list", "wrapped", "str", "null"])
    def test_plan_must_be_an_object(self, desc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            ExperimentPlan.from_json(desc)

    def test_integer_tolerance_and_missing_cap_are_accepted(self):
        plan = box_plan([0], 5)
        assert plan.tolerances == [0.0] and type(plan.tolerances[0]) is float
        desc = {k: v for k, v in vars(tiny_plan()).items() if k != "iter_cap"}
        assert ExperimentPlan.from_json(desc).iter_cap == 20000


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
        with pytest.raises(ValueError):
            run_plan(tiny_plan(problems=[{"kind": "box_suite"}]))

    def test_quadratic_requires_method(self):
        with pytest.raises(ValueError):
            run_plan(tiny_plan(strategies=[{"variant": "A1"}]))

    def test_csv_round_trip(self, tmp_path):
        rows = run_plan(tiny_plan())
        path = tmp_path / "results.csv"
        write_results_csv(rows, str(path))
        back = read_results_csv(str(path))
        assert [tuple(r[k] for k in RESULT_FIELDS) for r in back] == [
            tuple(str(r[k]) for k in RESULT_FIELDS) for r in rows
        ]

    def test_largest_instances_start_first(self, monkeypatch):
        # equal dimensions keep plan order; the key sort puts the rows back
        one_cpu(monkeypatch)
        started = []
        monkeypatch.setattr(bench, "_execute", lambda job, plan: started.append(job[1:]) or [])
        small, large = ({"family": "TP1", "n": n, "kappa": 10.0, "seeds": [1, 2], "mode": "diag"} for n in (20, 60))
        laplace = {"kind": "laplace3d", "variant": "A", "N": 4}  # n = 64
        run_plan(tiny_plan(problems=[small, laplace, large]))
        assert started == [(laplace, 0), (large, 1), (large, 2), (small, 1), (small, 2)]

    def test_summarize_means(self):
        rows = run_plan(tiny_plan())
        summary = summarize(rows)
        assert len(summary) == 2
        for group in summary:
            assert group["runs"] == 2
            assert group["failures"] == 0
            assert group["mean_iters"] == round(group["mean_iters"], 1)


POOL_PLANS = {
    "quadratic-seeds": lambda: tiny_plan(
        problems=[{"family": "SET3", "n": 60, "kappa": 1e3, "seeds": list(range(1, 9)), "mode": "diag"}],
        tolerances=[1e-3, 1e-6],
    ),
    # n = 33**3 > BLOCK_ELEMENTS // 2: every block is one row
    "laplace-B-33": lambda: tiny_plan(
        problems=[{"kind": "laplace3d", "variant": v, "N": 33} for v in ("B", "A")],
        strategies=[{"method": "DY"}, {"method": "NEWS", "h": 10, "s": 80}, {"method": "ABBMIN2"}],
        tolerances=[1e-3, 1e-4],
    ),
    "box-3-tolerances": lambda: box_plan([1e-2, 1e-5, 1e-8], 300),
}


@pytest.fixture
def job_log(tmp_path, monkeypatch):
    """A file to which every plan job, in whichever process runs it, writes
    "<pid> <CPUs in its mask>", and every started thread "thread"."""
    path = tmp_path / "jobs.log"
    execute, start = bench._execute, threading.Thread.start

    def log(line):
        with open(path, "a") as fh:
            fh.write(line + "\n")

    def logged_execute(job, plan):
        log(f"{os.getpid()} {len(os.sched_getaffinity(0))}")
        return execute(job, plan)

    def logged_start(thread):
        log("thread")
        start(thread)

    monkeypatch.setattr(bench, "_execute", logged_execute)
    monkeypatch.setattr(threading.Thread, "start", logged_start)
    return path


def logged_jobs(path):
    """(pid, CPU count) of each logged job, and the count of started threads."""
    lines = path.read_text().splitlines() if path.exists() else []
    jobs = [tuple(map(int, line.split())) for line in lines if line != "thread"]
    return jobs, lines.count("thread")


def assert_no_child_left(pids):
    assert multiprocessing.active_children() == []
    for pid in pids - {os.getpid()}:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # joined children are reaped: their pids are gone


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the pool needs 2 CPUs")
class TestPlanPool:
    """``run_plan`` spreads a plan's instances over one process per CPU."""

    @pytest.mark.parametrize("name", list(POOL_PLANS))
    def test_pooled_rows_equal_the_rows_on_one_cpu(self, monkeypatch, job_log, name):
        plan = POOL_PLANS[name]()
        mask = os.sched_getaffinity(0)
        pooled = run_plan(plan)
        jobs, threads = logged_jobs(job_log)
        assert os.sched_getaffinity(0) == mask
        assert_no_child_left({pid for pid, _ in jobs})
        # every process, the caller too, owns one CPU, so the engine's
        # one-row blocks start no thread
        assert len(jobs) == len(bench._plan_jobs(plan))  # each instance ran once
        assert len({pid for pid, _ in jobs}) == min(len(mask), len(jobs))
        assert {cpus for _, cpus in jobs} == {1} and threads == 0
        one_cpu(monkeypatch)
        assert run_plan(plan) == pooled

    @pytest.mark.parametrize("failing", ["child", "caller"])
    def test_an_error_is_raised_with_its_type_and_starts_no_job(self, monkeypatch, job_log, failing):
        caller, logged = os.getpid(), bench._execute

        def execute(job, plan):
            rows = logged(job, plan)
            if (os.getpid() == caller) == (failing == "caller"):
                raise ValueError(f"{failing} failed")
            time.sleep(0.05)  # the failing process surely gets an instance
            return rows

        monkeypatch.setattr(bench, "_execute", execute)
        mask = os.sched_getaffinity(0)
        plan = tiny_plan(problems=[{"family": "TP1", "n": 20, "kappa": 10.0, "seeds": list(range(40)), "mode": "diag"}])
        with pytest.raises(ValueError, match=f"{failing} failed"):
            run_plan(plan)
        jobs, _ = logged_jobs(job_log)
        assert os.sched_getaffinity(0) == mask
        assert_no_child_left({pid for pid, _ in jobs})
        assert len(jobs) < 40


def one_run_per_tolerance(plan):
    """(iters, termination) of a separate engine run per cell, in row order."""
    out = []
    for desc in plan.problems:
        for seed in desc["seeds"]:
            problem, x1, _ = bench.gen_instance(desc, seed)
            for strat in plan.strategies:
                for eps in plan.tolerances:
                    tr = qp_engine.run(problem, x1, StrategySpec(**strat), eps=eps, max_iter=plan.iter_cap)
                    out.append((plan.iter_cap if tr.failure else tr.iterations, tr.termination))
    return out


def cells(rows):
    return [(r["iters"], r["termination"]) for r in rows]


def unsorted_rows(plan):
    """Rows in job order (run_plan sorts them by key)."""
    return [row for job in bench._plan_jobs(plan) for row in bench._execute(job, plan)]


TOLERANCES = st.sampled_from([0.5, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12]) | st.floats(1e-13, 0.9)


class TestSharedTrajectory:
    """Every tolerance's row is read off one run per (instance, strategy)."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["TP1", "SET1", "SET2", "SET3", "SET4", "SET5"]),
        n=st.integers(5, 50),
        kappa=st.floats(2.0, 1e6),
        seed=st.integers(0, 2**16),
        h=st.integers(2, 12),
        s=st.integers(1, 12),
        tolerances=st.lists(TOLERANCES, min_size=1, max_size=5).flatmap(
            # repeat one entry, so duplicates appear alongside unsorted lists
            lambda ts: st.permutations(ts + ts[:1])
        ),
        iter_cap=st.integers(1, 60),
    )
    def test_rows_equal_one_run_per_tolerance(self, family, n, kappa, seed, h, s, tolerances, iter_cap):
        plan = ExperimentPlan.from_json(
            {
                "problems": [{"family": family, "n": n, "kappa": kappa, "seeds": [seed], "mode": "diag"}],
                "strategies": [{"method": m, "h": h, "s": s} for m in qp_engine.METHODS],
                "tolerances": tolerances,
                "iter_cap": iter_cap,
            }
        )
        assert cells(unsorted_rows(plan)) == one_run_per_tolerance(plan)

    def test_tolerance_landing_on_a_recorded_norm(self):
        # eps * ||g_1|| == ||g_i|| exactly: the row stops at i, as the engine's `<=` does
        desc, seed = tiny_plan().problems[0], 1
        problem, x1, _ = bench.gen_instance(desc, seed)
        gnorm = qp_engine.run(problem, x1, StrategySpec("BB1"), eps=1e-6).gnorm
        records = [i for i in range(1, len(gnorm)) if gnorm[i] < gnorm[:i].min()]
        ties = [(i, gnorm[i] / gnorm[0]) for i in records if gnorm[i] / gnorm[0] * gnorm[0] == gnorm[i]]
        assert len(ties) >= 3
        plan = tiny_plan(
            problems=[dict(desc, seeds=[seed])],
            strategies=[{"method": "BB1"}],
            tolerances=[float(eps) for _, eps in ties],
        )
        assert cells(unsorted_rows(plan)) == [(i, "gradient_tol") for i, _ in ties]
        assert cells(unsorted_rows(plan)) == one_run_per_tolerance(plan)

    def test_some_cells_cap_and_some_converge(self):
        plan = tiny_plan(tolerances=[1e-12, 1e-2, 1e-12], iter_cap=30)
        got = cells(unsorted_rows(plan))
        assert got == one_run_per_tolerance(plan)
        assert {t for _, t in got} == {"gradient_tol", "iter_cap"}

    def test_one_build_and_one_run_per_instance_and_strategy(self, monkeypatch):
        # one engine call per instance, holding each strategy once; on one
        # CPU the plan runs in this process, where the lists see every call
        one_cpu(monkeypatch)
        builds, runs = [], []
        build, each_trace = bench.gen_instance, qp_engine.each_trace
        monkeypatch.setattr(bench, "gen_instance", lambda *a: builds.append(a) or build(*a))
        def counted(p, x1, specs, eps, *args):
            runs.append((eps, [s.method for s in specs]))
            return each_trace(p, x1, specs, eps, *args)

        monkeypatch.setattr(qp_engine, "each_trace", counted)
        rows = run_plan(tiny_plan(tolerances=[1e-6, 1e-9, 1e-3]))
        assert len(rows) == 12  # 2 seeds x 2 strategies x 3 tolerances
        assert len(builds) == 2
        assert runs == [(1e-9, ["SD", "NEWS"])] * 2

    def test_rows_carry_only_result_fields(self):
        assert all(set(r) == set(RESULT_FIELDS) for r in run_plan(tiny_plan()))

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, math.nan])
    def test_quadratic_tolerance_outside_unit_interval(self, eps):
        with pytest.raises(ValueError):
            run_plan(tiny_plan(tolerances=[1e-6, eps]))


def one_solve_box_per_tolerance(plan, entries):
    """(iters, func_evals, termination) of a separate ``solve_box`` per
    cell, stopped at the cell's tolerance, in row order."""
    out = []
    for entry in entries:
        for strat in plan.strategies:
            for eps in plan.tolerances:
                cfg = box_solver.BoxRunConfig(**strat, eps_pg=eps, max_iter=plan.iter_cap)
                tr = box_solver.solve_box(entry.oracle_factory(), entry.bounds, entry.x1, cfg)
                out.append((plan.iter_cap if tr.failure else tr.iterations, tr.func_evals, tr.termination))
    return out


def box_cells(rows):
    return [(r["iters"], r["func_evals"], r["termination"]) for r in rows]


BOX_TOLERANCES = st.integers(-90, 10).map(lambda k: 10.0 ** (k / 10)) | st.sampled_from([1e-6, 0.0, 10.0])


class TestSharedBoxTrajectory:
    """Every tolerance's box row is read off one ``solve_box`` per (entry, strategy)."""

    @settings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(st.sampled_from(range(len(SUITE))), min_size=1, max_size=3, unique=True),
        tolerances=st.lists(BOX_TOLERANCES, min_size=1, max_size=4).flatmap(
            lambda ts: st.permutations(ts + ts[:1])
        ),
        iter_cap=st.integers(1, 200),
    )
    def test_rows_equal_one_solve_box_per_tolerance(self, picks, tolerances, iter_cap):
        entries = [SUITE[i] for i in picks]
        plan = box_plan(tolerances, iter_cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "make_suite", lambda: entries)
            got = box_cells(unsorted_rows(plan))
        assert got == one_solve_box_per_tolerance(plan, entries)

    def test_box_rows_carry_their_variants_cycle(self, monkeypatch):
        monkeypatch.setattr(bench, "make_suite", lambda: SUITE[:1])
        rows = run_plan(box_plan([1e-6], 5))
        labels = {(r["method"], r["h"], r["s"]) for r in rows}
        assert labels == {("A1", 10, 4), ("A1_BB1", 10, 4), ("A1_BB2", 10, 4), ("SPG", "", "")}

    def test_cells_cap_converge_and_cross_early(self):
        plan = box_plan([1e-2, 1e-8, 1e-4], 300)
        got = box_cells(unsorted_rows(plan))
        assert got == one_solve_box_per_tolerance(plan, SUITE)
        assert {t for _, _, t in got} == {"gradient_tol", "iter_cap"}

    def test_tolerance_crossed_before_a_line_search_failure(self, monkeypatch):
        # every run's search fails at step j + 1, after an iterate j whose
        # pg sup-norm is a new low: one tolerance is met before the failure,
        # one exactly at the failed run's last iterate, one never
        entry = SUITE[0]
        pg = box_solver.solve_box(entry.oracle_factory(), entry.bounds, entry.x1, box_solver.BoxRunConfig()).pg_inf
        j = next(i for i in range(10, len(pg)) if pg[i] < pg[:i].min())
        search = box_solver.nonmonotone_search

        def failing_search(oracle, *args):
            step = search(oracle, *args)
            return None if oracle.grad_count > j else step

        monkeypatch.setattr(box_solver, "nonmonotone_search", failing_search)
        monkeypatch.setattr(bench, "make_suite", lambda: [entry])
        plan = box_plan([1e-12, float(pg[j]), float(pg[j // 2])], 20000, strategies=[{"variant": "A1"}])
        got = box_cells(unsorted_rows(plan))
        assert got == one_solve_box_per_tolerance(plan, [entry])
        assert [t for _, _, t in got] == ["line_search_failed", "gradient_tol", "gradient_tol"]
        assert got[1][0] == j and got[2][0] <= j // 2

    def test_one_solve_box_per_entry_and_strategy(self, monkeypatch):
        one_cpu(monkeypatch)  # the plan runs in this process, where the list sees every call
        calls = []
        solve = box_solver.solve_box

        def counted(oracle, bounds, x1, cfg):
            calls.append((cfg.eps_pg, cfg.max_iter))
            return solve(oracle, bounds, x1, cfg)

        monkeypatch.setattr(box_solver, "solve_box", counted)
        rows = run_plan(box_plan([1e-4, 1e-7, 1e-2], 50))
        assert len(rows) == len(SUITE) * 4 * 3
        assert calls == [(1e-7, 50)] * (len(SUITE) * 4)


def indefinite_instance(desc, seed):
    """A run of SD from this start crosses 1e-4 relative to ||g_1|| within
    100 steps; the negative eigenvalue's component then grows until the
    objective overflows."""
    problem = QuadraticProblem(np.diag([1.0, 3.0, 10.0, -1.0]))
    return problem, np.array([1.0, 1.0, 1.0, 1e-12]), {"family": "INDEF", "kappa": ""}


class TestFailureTerminations:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverged_after_crossing_the_loosest_tolerance(self, monkeypatch):
        monkeypatch.setattr(bench, "gen_instance", indefinite_instance)
        plan = tiny_plan(strategies=[{"method": "SD"}], tolerances=[1e-9, 1e-4, 1e-12], iter_cap=20000)
        rows = unsorted_rows(plan)
        assert cells(rows) == one_run_per_tolerance(plan)
        by_eps = {r["eps"]: r for r in rows}
        assert by_eps[1e-4]["termination"] == "gradient_tol"
        assert by_eps[1e-4]["iters"] < 100
        for eps in (1e-9, 1e-12):
            assert by_eps[eps]["termination"] == "diverged"
            assert by_eps[eps]["iters"] == plan.iter_cap

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_start_meets_no_tolerance(self, monkeypatch):
        # ||g_1|| overflows to inf, and inf <= eps * inf would read as met
        problem = QuadraticProblem(np.array([1e300, 1e300]))
        meta = {"family": "BIG", "kappa": ""}
        monkeypatch.setattr(bench, "gen_instance", lambda desc, seed: (problem, np.ones(2), meta))
        plan = tiny_plan(strategies=[{"method": "SD"}], tolerances=[1e-6], iter_cap=100)
        rows = unsorted_rows(plan)
        assert cells(rows) == one_run_per_tolerance(plan) == [(100, "diverged")] * 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverged_trace_keeps_the_finite_part_of_the_run(self):
        problem, x1, _ = indefinite_instance(None, None)
        trace = qp_engine.run(problem, x1, StrategySpec("SD"), eps=1e-12)
        assert trace.termination == "diverged"
        assert len(trace.gnorm) == trace.iterations + 1 == len(trace.alpha) + 1
        assert np.isfinite(trace.f).all()
        # x_final is the last recorded iterate
        assert problem.objective(trace.x_final) == pytest.approx(trace.f[-1], rel=1e-6)

    @staticmethod
    def box_plan(monkeypatch, f_off_start):
        """Box plan over one entry whose objective is x'x at the start and
        ``f_off_start`` everywhere else."""
        def oracle():
            return ObjectiveOracle(lambda x: float(x @ x) if np.all(x == 1.0) else f_off_start, lambda x: 2.0 * x)

        entry = BoundedProblem("broken", oracle, free_bounds(3), np.ones(3))
        monkeypatch.setattr(bench, "make_suite", lambda: [entry])
        return ExperimentPlan.from_json(
            {
                "problems": [{"kind": "box_suite"}],
                "strategies": [{"variant": "A1"}, {"variant": "SPG"}],
                "tolerances": [1e-6],
                "iter_cap": 500,
            }
        )

    def test_box_line_search_failed(self, monkeypatch):
        rows = run_plan(self.box_plan(monkeypatch, math.nan))
        assert [r["termination"] for r in rows] == ["line_search_failed"] * 2
        assert all(r["iters"] == 500 for r in rows)
        assert all(r["func_evals"] > 50 for r in rows)  # every backtrack was counted

    def test_box_diverged(self, monkeypatch):
        rows = run_plan(self.box_plan(monkeypatch, -math.inf))
        assert [r["termination"] for r in rows] == ["diverged"] * 2
        assert all(r["iters"] == 500 for r in rows)

    def test_box_nonfinite_start_meets_no_tolerance(self, monkeypatch):
        # pg_inf at the start is 2, under the loose tolerance 10, but the run
        # fails before its first stop test
        entry = BoundedProblem("nan-start", lambda: ObjectiveOracle(lambda x: math.nan, lambda x: 2.0 * x),
                               free_bounds(3), np.ones(3))
        monkeypatch.setattr(bench, "make_suite", lambda: [entry])
        plan = box_plan([10.0, 1e-6], 500, strategies=[{"variant": "A1"}])
        got = box_cells(unsorted_rows(plan))
        assert got == one_solve_box_per_tolerance(plan, [entry])
        assert got == [(500, 1, "diverged")] * 2

    def test_summarize_counts_named_failures(self, monkeypatch):
        summary = summarize(run_plan(self.box_plan(monkeypatch, math.nan)))
        assert [(g["runs"], g["failures"], g["mean_iters"]) for g in summary] == [(1, 1, 500.0)] * 2


class TestFailedRows:
    """A strategy that fails numerically reads ``diverged`` in its rows,
    beside the other strategies of the same instance."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_undefined_and_zero_curvature_rows(self, monkeypatch):
        indefinite = QuadraticProblem(np.diag([1.0, 3.0, 10.0, -1.0]), np.ones(4))
        singular = QuadraticProblem(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))
        tiny = QuadraticProblem(np.array([1e-10, 2e-10]))
        problems = {1: (indefinite, np.ones(4)), 2: (singular, np.ones(2)), 3: (tiny, np.full(2, 1e155))}
        monkeypatch.setattr(
            bench, "gen_instance", lambda desc, seed: (*problems[seed], {"family": "F", "kappa": ""})
        )
        plan = tiny_plan(
            problems=[{"family": "TP1", "n": 40, "kappa": 100.0, "seeds": [1, 2, 3]}],
            strategies=[{"method": "DY"}, {"method": "BB2"}], tolerances=[1e-6], iter_cap=3000,
        )
        got = {(r["seed"], r["method"]): (r["iters"], r["termination"]) for r in run_plan(plan)}
        assert got == {
            (1, "DY"): (3000, "diverged"),  # g'Ag < 0 at iterate 3
            (1, "BB2"): (3000, "diverged"),
            (2, "DY"): (3000, "diverged"),  # g'Ag = 0 at the start
            (2, "BB2"): (3000, "diverged"),
            (3, "DY"): (3000, "diverged"),  # the two-point step overflows
            (3, "BB2"): (8, "gradient_tol"),
        }


class TestPerformanceProfile:
    def test_single_solver_all_solved(self):
        prof = performance_profile([("p1", "A", 10.0, True), ("p2", "A", 3.0, True)])
        assert rho(prof, "A", 1.0) == 1.0
        assert rho(prof, "A", 5.0) == 1.0

    def test_two_solver_hand_example(self):
        entries = [
            ("p1", "A", 10.0, True),
            ("p1", "B", 20.0, True),
            ("p2", "A", 30.0, True),
            ("p2", "B", 15.0, True),
        ]
        prof = performance_profile(entries)
        assert rho(prof, "A", 1.0) == 0.5
        assert rho(prof, "B", 1.0) == 0.5
        assert rho(prof, "A", 2.0) == 1.0
        assert rho(prof, "B", 2.0) == 1.0
        assert rho(prof, "A", 1.5) == 0.5

    def test_unsolved_plateau(self):
        entries = [
            ("p1", "A", 10.0, True),
            ("p1", "B", 12.0, True),
            ("p2", "A", 30.0, True),
            ("p2", "B", math.inf, False),
        ]
        prof = performance_profile(entries)
        assert rho(prof, "B", 1e9) == 0.5
        assert rho(prof, "A", 3.0) == 1.0

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
