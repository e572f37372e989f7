import csv
import json

import numpy as np
import pytest

from specgrad.bench import ExperimentPlan, run_plan
from specgrad.cli import main


def test_gen_then_solve(tmp_path):
    problem = tmp_path / "tp1.json"
    trace = tmp_path / "run.csv"
    assert main(["gen", "--family", "TP1", "--n", "50", "--kappa", "100",
                 "--seed", "3", "--out", str(problem)]) == 0
    desc = json.loads(problem.read_text())
    assert desc["mode"] == "diag" and desc["family"] == "TP1"

    rc = main([
        "solve", "--problem", str(problem), "--strategy", "news",
        "--h", "4", "--s", "6", "--eps", "1e-9", "--seed", "1", "--out", str(trace),
    ])
    assert rc == 0
    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"k", "f", "gnorm", "alpha", "branch"}
    assert float(rows[-1]["gnorm"]) <= 1e-9 * float(rows[0]["gnorm"])


def test_solve_nonfinite_problem_exits_1(tmp_path, capsys):
    problem = tmp_path / "nan.json"
    # json writes and reads the NaN literal
    problem.write_text(json.dumps({"kind": "diag", "eigenvalues": [1.0, float("nan")]}))
    rc = main(["solve", "--problem", str(problem), "--strategy", "sd",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc, strategy, cause",
    [
        ({"kind": "dense", "matrix": [[1.0, 0.0], [0.0, 0.0]], "b": [1.0, 1.0]}, "sd", "nonpositive curvature"),
        (
            {"kind": "dense", "matrix": np.diag([1.0, 3.0, 10.0, -1.0]).tolist(), "b": [1.0] * 4},
            "dy",
            "nonpositive curvature at iteration 3",
        ),
        ({"kind": "diag", "eigenvalues": [1e300, 1.0], "b": [1.0, 1.0]}, "sd", "nonfinite gradient norm"),
    ],
    ids=["singular", "indefinite_dy", "overflow"],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_solve_numerical_failure_exits_2(tmp_path, capsys, desc, strategy, cause):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(desc))
    rc = main(["solve", "--problem", str(problem), "--strategy", strategy, "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and cause in err


def test_diag_numerical_failure_exits_2(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"kind": "dense", "matrix": [[1.0, 0.0], [0.0, 0.0]], "b": [1.0, 1.0]}))
    out = tmp_path / "diag.csv"
    rc = main(["diag", "--problem", str(problem), "--strategy", "sd", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("run failed: nonpositive curvature")
    assert not out.exists()


def test_solve_unknown_strategy(tmp_path, capsys):
    problem = tmp_path / "p.json"
    main(["gen", "--family", "TP1", "--n", "10", "--out", str(problem)])
    rc = main(["solve", "--problem", str(problem), "--strategy", "bogus",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_malformed_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{\"problems\": []}")
    rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "strategy", [{"method": "SD", "foo": 1}, {"variant": "A1", "foo": 1}], ids=["quadratic", "box"]
)
def test_unknown_strategy_key_exits_1(tmp_path, capsys, strategy):
    plan = tmp_path / "plan.json"
    quadratic = {"family": "TP1", "n": 10, "kappa": 10.0, "seeds": [1]}
    problem = {"kind": "box_suite"} if "variant" in strategy else quadratic
    plan.write_text(json.dumps({"problems": [problem], "strategies": [strategy], "tolerances": [1e-6]}))
    rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: strategy entry") and "sets ['foo']; it takes only" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "problem, message",
    [
        ({"kind": "box_suite", "foo": 1}, "sets ['foo']; it takes only"),
        ({"family": "TP1", "n": 10, "kappa": 10.0, "seed": [1, 2]}, "'seed' must be an int"),
    ],
    ids=["unknown-key", "seed-list"],
)
def test_bad_problem_entry_exits_1(tmp_path, capsys, problem, message):
    plan = tmp_path / "plan.json"
    strategy = {"variant": "A1"} if "kind" in problem else {"method": "SD"}
    plan.write_text(json.dumps({"problems": [problem], "strategies": [strategy], "tolerances": [1e-6]}))
    rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: problem entry") and message in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "plan_json, message",
    [
        ({"problems": [1], "strategies": [{"method": "SD"}], "tolerances": [1e-6]}, "'problems' must be a list of"),
        ({"problems": [{"family": "TP1", "n": 10}], "strategies": [{"method": "SD"}], "tolerances": 1e-6},
         "'tolerances' must be a list of"),
        ({"problems": [{"family": "TP1", "n": 10}], "strategies": [{"method": "SD"}], "tolerances": [1e-6],
          "iter_cap": None}, "'iter_cap' must be an int"),
        ([], "must be a JSON object"),
        ({"problems": [{"family": "TP1", "n": 10}], "strategies": [{"method": 1}], "tolerances": [1e-6]},
         "'method' must be str"),
        ({"problems": [{"family": "TP1", "n": 10}], "strategies": [{"method": "NEWS", "h": "3"}],
          "tolerances": [1e-6]}, "'h' must be int"),
    ],
    ids=["problem-number", "tolerance-number", "null-cap", "list", "method-number", "h-string"],
)
def test_bad_plan_shape_exits_1(tmp_path, capsys, plan_json, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_json))
    rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_negative_box_tolerance_exits_1(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "problems": [{"kind": "box_suite"}], "strategies": [{"variant": "A1"}],
        "tolerances": [-1e-6], "iter_cap": 5,
    }))
    rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "box tolerances" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bench_and_profile(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "problems": [{"family": "TP1", "n": 30, "kappa": 50.0, "seeds": [1, 2]}],
        "strategies": [{"method": "SD"}, {"method": "NEWS", "h": 2, "s": 2}],
        "tolerances": [1e-6],
        "iter_cap": 5000,
    }))
    results = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    rc = main(["bench", "--plan", str(plan), "--out", str(results),
               "--summary-out", str(summary)])
    assert rc == 0
    with open(results) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4

    prof = tmp_path / "prof.csv"
    rc = main(["profile", str(results), "--metric", "iterations", "--out", str(prof)])
    assert rc == 0
    with open(prof) as fh:
        prows = list(csv.DictReader(fh))
    assert {r["solver"] for r in prows} == {"SD", "NEWS(2,2)"}
    for solver in ("SD", "NEWS(2,2)"):
        rhos = [float(r["rho"]) for r in prows if r["solver"] == solver]
        assert rhos == sorted(rhos)
        assert rhos[-1] == 1.0


def test_bench_threads_option_removed(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "problems": [{"family": "TP1", "n": 30, "kappa": 50.0, "seeds": [1]}],
        "strategies": [{"method": "SD"}],
        "tolerances": [1e-6],
    }))
    rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv"), "--threads", "2"])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_profile_no_rows(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("family,kappa,eps,method,h,s,seed,iters,func_evals,termination\n")
    rc = main(["profile", str(empty), "--out", str(tmp_path / "p.csv")])
    assert rc == 1


def test_diag_series(tmp_path):
    problem = tmp_path / "tp1.json"
    main(["gen", "--family", "TP1", "--n", "200", "--seed", "5", "--out", str(problem)])
    out = tmp_path / "diag.csv"
    rc = main(["diag", "--problem", str(problem), "--strategy", "AOPT",
               "--max-iter", "120", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"k", "bar_alpha", "hat_alpha"}
    assert int(rows[0]["k"]) == 2
    assert len(rows) >= 100


def test_gen_laplace(tmp_path):
    out = tmp_path / "lap.json"
    assert main(["gen", "--kind", "laplace3d", "--variant", "B", "--N", "4",
                 "--out", str(out)]) == 0
    desc = json.loads(out.read_text())
    assert desc == {"kind": "laplace3d", "variant": "B", "N": 4}


def test_gen_requires_family_or_kind(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize("mode", ["diag", "dense", "diag_equiv"])
def test_solve_counts_match_the_plan_row(tmp_path, capsys, mode):
    # gen writes the descriptor a plan entry holds; solve and bench build
    # the same problem and start from it
    desc = {"family": "SET2", "n": 40, "kappa": 1e3, "seed": 7, "mode": mode}
    problem = tmp_path / "p.json"
    assert main(["gen", "--family", "SET2", "--n", "40", "--kappa", "1e3", "--seed", "7",
                 "--mode", mode, "--out", str(problem)]) == 0
    assert json.loads(problem.read_text()) == desc
    assert main(["solve", "--problem", str(problem), "--strategy", "NEWS", "--h", "4", "--s", "6",
                 "--eps", "1e-8", "--out", str(tmp_path / "t.csv")]) == 0
    solved = json.loads(capsys.readouterr().out)
    entry = dict(desc)
    entry["seeds"] = [entry.pop("seed")]  # a plan entry takes 'seed' or 'seeds', not both
    plan = ExperimentPlan.from_json({
        "problems": [entry],
        "strategies": [{"method": "NEWS", "h": 4, "s": 6}],
        "tolerances": [1e-8],
    })
    (row,) = run_plan(plan)
    assert (solved["iterations"], solved["termination"]) == (row["iters"], row["termination"])


def test_family_descriptor_with_kind_exits_1(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"kind": "dense", "family": "SET1", "n": 20, "kappa": 100.0, "seed": 1}))
    rc = main(["solve", "--problem", str(problem), "--strategy", "sd", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "'mode'" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "desc, key",
    [
        ({"family": "SET1", "mode": "dense"}, "'n'"),
        ({"kind": "laplace3d", "variant": "A"}, "'N'"),
        ({"kind": "diag", "b": [1, 2]}, "'eigenvalues'"),
        ({"kind": "sparse", "n": 2, "rows": [0, 1], "cols": [0, 1]}, "'vals'"),
    ],
    ids=["family-no-n", "laplace-no-N", "diag-no-eigenvalues", "sparse-no-vals"],
)
def test_descriptor_missing_a_key_exits_1(tmp_path, capsys, desc, key):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(desc))
    rc = main(["solve", "--problem", str(problem), "--strategy", "sd", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "desc, message",
    [
        ({"kind": "diag", "eigenvalues": [[2, 1], [1, 2]]}, "1-D"),
        ({"kind": "dense", "matrix": [2, 3]}, "2-D"),
        ({"kind": "dense", "matrix": [[1, 5], [0, 1]]}, "symmetric"),
        ({"kind": "sparse", "n": 2, "rows": [0, 0, 1], "cols": [0, 1, 1], "vals": [2, 1, 2]}, "symmetric"),
        ({"kind": "diag", "eigenvalues": [], "b": []}, "dimension must be positive"),
    ],
    ids=["diag-given-a-matrix", "dense-given-a-vector", "dense-nonsymmetric", "sparse-nonsymmetric", "diag-empty"],
)
def test_descriptor_array_that_does_not_fit_its_kind_exits_1(tmp_path, capsys, desc, message):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(desc))
    rc = main(["solve", "--problem", str(problem), "--strategy", "sd", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
