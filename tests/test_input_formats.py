"""One table of bad inputs, fed to every entry point that reads them.

Each input format checks its own keys and types: a family descriptor in
``generators.family_spec``, a Laplacian one in ``laplace_spec``, an
explicit-array one in ``QuadraticProblem.from_json``, a strategy in
``StrategySpec`` or ``BoxRunConfig``. A plan (``specgrad bench``) and a
single run (``specgrad solve``) reach the same owner, so both refuse what
the owner refuses, with exit code 1 and an ``error:`` line.
"""

import json

import pytest

from specgrad.box_solver import BoxRunConfig
from specgrad.cli import main
from specgrad.generators import gen_instance
from specgrad.qp_engine import StrategySpec

FAMILY = {"family": "SET1", "n": 20, "kappa": 100}
LAPLACE = {"kind": "laplace3d", "variant": "A", "N": 4}

# (id, problem descriptor, key the error names)
BAD_PROBLEMS = [
    ("unknown-key", dict(FAMILY, foo=1), "'foo'"),
    ("n-float", dict(FAMILY, n=10.9), "'n'"),
    ("n-str", dict(FAMILY, n="12"), "'n'"),
    ("kappa-str", dict(FAMILY, kappa="10"), "'kappa'"),
    ("seed-bool", dict(FAMILY, seed=True), "'seed'"),
    ("N-float", dict(LAPLACE, N=4.5), "'N'"),
    ("laplace-seed", dict(LAPLACE, seed=1), "'seed'"),
    ("explicit-foo", {"kind": "diag", "eigenvalues": [1.0, 2.0], "foo": 1}, "'foo'"),
]

# (id, strategy entry, key the error names, a quadratic problem entry or the box suite)
BAD_STRATEGIES = [
    ("h-float", {"method": "NEWS", "h": 3.0, "s": 2}, "'h'", FAMILY),
    ("M-bool", {"variant": "SPG", "M": True}, "'M'", {"kind": "box_suite"}),
    ("method-int", {"method": 1}, "'method'", FAMILY),
]

bad_problems = pytest.mark.parametrize(
    "desc, key", [row[1:] for row in BAD_PROBLEMS], ids=[row[0] for row in BAD_PROBLEMS]
)
bad_strategies = pytest.mark.parametrize(
    "strategy, key, problem", [row[1:] for row in BAD_STRATEGIES], ids=[row[0] for row in BAD_STRATEGIES]
)


def _exits_1(capsys, argv, key=None):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key is None or key in err


@bad_problems
def test_problem_descriptor_owner_refuses(desc, key):
    with pytest.raises(ValueError, match=key):
        gen_instance(desc)
    with pytest.raises(ValueError, match=key):
        gen_instance(desc, 3)  # a seed given by the caller does not hide the descriptor's faults


@bad_problems
def test_solve_refuses_bad_problem(tmp_path, capsys, desc, key):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(desc))
    _exits_1(capsys, ["solve", "--problem", str(problem), "--strategy", "sd", "--out", str(tmp_path / "t.csv")], key)
    assert not (tmp_path / "t.csv").exists()


@bad_problems
def test_bench_refuses_bad_problem(tmp_path, capsys, desc, key):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"problems": [desc], "strategies": [{"method": "SD"}], "tolerances": [1e-6]}))
    # a plan takes no explicit-array entry at all, so its error names no key of one
    named = None if "family" not in desc and desc.get("kind") != "laplace3d" else key
    _exits_1(capsys, ["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")], named)
    assert not (tmp_path / "r.csv").exists()


@bad_strategies
def test_strategy_owner_refuses(strategy, key, problem):
    with pytest.raises(ValueError, match=key):
        (BoxRunConfig if "variant" in strategy else StrategySpec)(**strategy)


@bad_strategies
def test_bench_refuses_bad_strategy(tmp_path, capsys, strategy, key, problem):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"problems": [problem], "strategies": [strategy], "tolerances": [1e-6]}))
    _exits_1(capsys, ["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")], key)
    assert not (tmp_path / "r.csv").exists()


def test_solve_refuses_a_float_h(tmp_path, capsys):
    # solve reads (h, s) from its options, which take ints only
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(FAMILY))
    _exits_1(capsys, ["solve", "--problem", str(problem), "--strategy", "news", "--h", "3.0",
                      "--out", str(tmp_path / "t.csv")], "--h")


@pytest.mark.parametrize(
    "gen_args",
    [["--family", "SET1", "--n", "20", "--kappa", "100", "--seed", "3"], ["--kind", "laplace3d", "--N", "4"]],
    ids=["family", "laplace3d"],
)
def test_gen_round_trip(tmp_path, capsys, gen_args):
    # what gen writes, solve runs; a plan runs it too once 'seeds' replaces 'seed'
    problem = tmp_path / "p.json"
    assert main(["gen", *gen_args, "--out", str(problem)]) == 0
    assert main(["solve", "--problem", str(problem), "--strategy", "bb1", "--eps", "1e-6",
                 "--out", str(tmp_path / "t.csv")]) == 0
    desc = json.loads(problem.read_text())
    if "seed" in desc:
        desc["seeds"] = [desc.pop("seed")]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"problems": [desc], "strategies": [{"method": "BB1"}], "tolerances": [1e-6]}))
    assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()


def test_a_plan_entry_runs_alone_only_with_a_seed(tmp_path, capsys):
    # a family entry's 'seeds' is a plan key: solve refuses it unless --seed picks one
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(dict(FAMILY, seeds=[1, 2])))
    argv = ["solve", "--problem", str(problem), "--strategy", "bb1", "--out", str(tmp_path / "t.csv")]
    _exits_1(capsys, argv, "'seeds'")
    assert main([*argv, "--seed", "2"]) == 0
