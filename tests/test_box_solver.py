import math

import numpy as np
import pytest

from specgrad.box_solver import (
    MAX_BACKTRACKS,
    BoxRunConfig,
    LineSearchState,
    direction,
    nonmonotone_search,
    solve_box,
    update_reference,
)
from specgrad import box_solver, stepsize
from specgrad.generators import SpectrumSpec, gen_diag_problem
from specgrad.problem import BoxBounds, ObjectiveOracle, QuadraticProblem
from specgrad.stepsize import bar_alpha_direct

from reference import contains, free_bounds


def quad_oracle(diag, b=None):
    return QuadraticProblem(np.asarray(diag, dtype=float), b).as_oracle()


class TestDirection:
    def test_free_coordinates(self):
        b = free_bounds(3)
        x = np.array([1.0, 2.0, 3.0])
        g = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(direction(x, g, 2.0, b), -2.0 * g)

    def test_active_lower_bound(self):
        b = BoxBounds([0.0], [1.0])
        d = direction(np.array([0.0]), np.array([3.0]), 1.0, b)
        assert d[0] == 0.0

    def test_clamp_arithmetic(self):
        b = BoxBounds([0.0], [1.0])
        d = direction(np.array([0.5]), np.array([2.0]), 1.0, b)
        assert d[0] == -0.5

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError):
            direction(np.zeros(1), np.ones(1), 0.0, free_bounds(1))

    def test_descent_property(self):
        rng = np.random.default_rng(0)
        b = BoxBounds(rng.uniform(-1, 0, 20), rng.uniform(0, 1, 20))
        for _ in range(50):
            x = b.project(rng.standard_normal(20))
            g = rng.standard_normal(20)
            d = direction(x, g, float(rng.uniform(0.01, 10)), b)
            assert float(g @ d) <= 1e-12


class TestNonmonotoneSearch:
    def test_unit_step_accepted(self):
        oracle = quad_oracle([1.0, 1.0])
        x = np.array([1.0, 0.0])
        d = np.array([-1.0, 0.0])
        g = np.array([1.0, 0.0])
        ls = LineSearchState.fresh(oracle.f(x), M=8, sigma=1e-4)
        lam, f_new, unit, x_new = nonmonotone_search(oracle, x, d, float(g @ d), ls)
        assert lam == 1.0 and unit
        assert f_new == 0.0
        np.testing.assert_array_equal(x_new, x + d)

    def test_backtracks_to_quarter(self):
        oracle = quad_oracle([1.0, 1.0])
        x = np.array([1.0, 0.0])
        d = np.array([-4.0, 0.0])
        g = np.array([1.0, 0.0])
        ls = LineSearchState.fresh(oracle.f(x), M=8, sigma=1e-4)
        lam, f_new, unit, x_new = nonmonotone_search(oracle, x, d, float(g @ d), ls)
        # enumeration over 1, 1/2, 1/4, ... : the first accepted length is 1/4
        assert not unit
        assert lam == 0.25
        assert f_new == 0.0
        np.testing.assert_array_equal(x_new, x + 0.25 * d)

    def test_ascent_direction_rejected(self):
        oracle = quad_oracle([1.0])
        ls = LineSearchState.fresh(0.5, M=8, sigma=1e-4)
        with pytest.raises(ValueError):
            nonmonotone_search(oracle, np.array([1.0]), np.array([1.0]), 1.0, ls)

    def test_failure_after_50_backtracks(self):
        # trial values sit strictly above every acceptance bound
        oracle = ObjectiveOracle(lambda x: 1.0 + 1e-9, lambda x: np.zeros(1))
        ls = LineSearchState.fresh(1.0, M=8, sigma=1e-4)
        assert nonmonotone_search(oracle, np.zeros(1), np.array([-1.0]), -1.0, ls) is None
        assert oracle.eval_count == 1 + MAX_BACKTRACKS


class TestUpdateReference:
    def test_initialization(self):
        ls = LineSearchState.fresh(10.0, M=3, sigma=1e-4)
        assert ls.f_r == ls.f_best == ls.f_c == 10.0
        assert ls.L == 0 and ls.f_max == 10.0

    def test_improvement_resets(self):
        ls = LineSearchState.fresh(10.0, M=3, sigma=1e-4)
        update_reference(ls, 9.0)
        assert ls.f_best == 9.0 and ls.f_c == 9.0 and ls.L == 0
        assert ls.f_r == 10.0

    def test_m_nonimproving_promotes_candidate(self):
        ls = LineSearchState.fresh(10.0, M=3, sigma=1e-4)
        update_reference(ls, 11.0)
        update_reference(ls, 12.0)
        assert ls.L == 2 and ls.f_c == 12.0 and ls.f_r == 10.0
        update_reference(ls, 11.5)
        assert ls.f_r == 12.0  # worst candidate promoted
        assert ls.f_c == 11.5 and ls.L == 0

    def test_strictly_decreasing_keeps_reference(self):
        ls = LineSearchState.fresh(5.0, M=4, sigma=1e-4)
        for f in (4.0, 3.0, 2.5, 1.0, 0.5):
            update_reference(ls, f)
        assert ls.f_r == 5.0 and ls.f_best == 0.5

    def test_invariant_chain(self):
        rng = np.random.default_rng(1)
        ls = LineSearchState.fresh(1.0, M=5, sigma=1e-4)
        f = 1.0
        for _ in range(200):
            f = f - rng.uniform(-0.05, 0.2)  # mostly decreasing, some increases
            f = min(f, ls.f_r - 1e-9)  # accepted values stay below the reference
            update_reference(ls, f)
            assert ls.f_best <= ls.f_c <= ls.f_r


class TestBoxRunConfig:
    def test_defaults(self):
        cfg = BoxRunConfig()
        assert cfg.alpha_min == 1e-30 and cfg.alpha_max == 1e30
        assert (cfg.h, cfg.s, cfg.M) == (10, 4, 8)
        assert cfg.sigma == 1e-4 and cfg.eps_pg == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxRunConfig(alpha_min=1.0, alpha_max=0.5)
        with pytest.raises(ValueError):
            BoxRunConfig(variant="A2")
        with pytest.raises(ValueError):
            BoxRunConfig(sigma=0.0)

    @pytest.mark.parametrize("eps_pg", [-1.0, math.inf, math.nan])
    def test_eps_pg_negative_or_nonfinite(self, eps_pg):
        with pytest.raises(ValueError, match="eps_pg"):
            BoxRunConfig(eps_pg=eps_pg)

    def test_max_iter_below_one(self):
        with pytest.raises(ValueError, match="max_iter"):
            BoxRunConfig(max_iter=0)
        assert BoxRunConfig(eps_pg=0.0, max_iter=1).max_iter == 1

    def test_variant_normalization(self):
        assert BoxRunConfig(variant="a1-bb1").variant == "A1_BB1"


class TestSolveBox:
    @pytest.mark.parametrize("variant", ["A1", "A1_BB1", "A1_BB2"])
    def test_unconstrained_quadratic(self, variant):
        p = gen_diag_problem(SpectrumSpec("SET1", 40, 1e3, 3))
        cfg = BoxRunConfig(variant=variant)
        tr = solve_box(p.as_oracle(), free_bounds(40), np.ones(40), cfg)
        assert tr.termination == "gradient_tol"
        assert tr.pg_inf[-1] <= 1e-6
        assert np.linalg.norm(tr.x_final - p.solution()) <= 1e-4

    def test_2d_box_qp_active_solution(self):
        # min 0.5((x1-2)^2 + (x2-2)^2) over [0,1]^2 -> solution (1,1)
        p = QuadraticProblem(np.ones(2), np.array([2.0, 2.0]))
        tr = solve_box(p.as_oracle(), BoxBounds([0.0, 0.0], [1.0, 1.0]), np.zeros(2), BoxRunConfig())
        np.testing.assert_allclose(tr.x_final, [1.0, 1.0], atol=1e-8)

    def test_infeasible_start_projected(self):
        p = QuadraticProblem(np.ones(2), np.array([2.0, 2.0]))
        bounds = BoxBounds([0.0, 0.0], [1.0, 1.0])
        tr = solve_box(p.as_oracle(), bounds, np.array([50.0, -50.0]), BoxRunConfig())
        np.testing.assert_allclose(tr.x_final, [1.0, 1.0], atol=1e-8)
        assert contains(bounds, tr.x_final)

    def test_accepted_steps_satisfy_their_rule(self):
        p = gen_diag_problem(SpectrumSpec("SET3", 50, 1e3, 9))
        xs = p.solution()
        bounds = BoxBounds(xs - 5.0, xs - 0.1)  # all bounds active
        tr = solve_box(p.as_oracle(), bounds, bounds.project(np.ones(50)), BoxRunConfig())
        assert tr.termination == "gradient_tol"
        for rec in tr.ls_records:
            if rec["unit"]:
                assert rec["f_new"] <= rec["f_r"] + rec["sigma"] * rec["gd"]
            else:
                bound = min(rec["f_max"], rec["f_r"])
                assert rec["f_new"] <= bound + rec["sigma"] * rec["lam"] * rec["gd"]

    def test_counters_filled(self):
        p = gen_diag_problem(SpectrumSpec("SET1", 30, 1e2, 4))
        tr = solve_box(p.as_oracle(), free_bounds(30), np.ones(30), BoxRunConfig())
        assert tr.func_evals >= tr.iterations
        assert tr.grad_evals == tr.iterations + 1
        summary = tr.summary()
        assert summary["func_evals"] == tr.func_evals
        assert summary["grad_evals"] == tr.grad_evals

    def test_sy_nonpos_branch_on_concave_objective(self):
        # maximize ||x||^2 pushes every coordinate to a bound; s'y < 0 throughout
        f = lambda x: -0.5 * float(x @ x)
        g = lambda x: -x
        oracle = ObjectiveOracle(f, g)
        bounds = BoxBounds(-np.ones(5), np.ones(5))
        tr = solve_box(oracle, bounds, np.full(5, 0.3), BoxRunConfig(max_iter=100))
        assert "sy_nonpos" in tr.branch
        assert tr.termination == "gradient_tol"
        np.testing.assert_allclose(tr.x_final, np.ones(5))

    def test_branch_labels_cover_algorithm(self):
        labels = set()
        for seed in (1, 2, 3):
            p = gen_diag_problem(SpectrumSpec("SET2", 40, 1e4, seed))
            tr = solve_box(p.as_oracle(), free_bounds(40), np.ones(40),
                           BoxRunConfig(h=4, s=4))
            labels.update(tr.branch)
        assert {"long", "short_min"} <= labels

    def test_quadratic_consistency_of_reconstructed_spectral_value(self):
        # with unit steps and free bounds the reconstruction must agree with
        # the direct quotient on the matching gradient pair
        p = gen_diag_problem(SpectrumSpec("SET1", 40, 1e2, 8))
        oracle = p.as_oracle()
        grads = []
        orig = oracle.grad

        def recording_grad(x):
            g = orig(x)
            grads.append(g.copy())
            return g

        oracle.grad = recording_grad
        tr = solve_box(oracle, free_bounds(40), np.ones(40), BoxRunConfig(h=4, s=6))
        gnorm1 = float(np.linalg.norm(grads[0]))
        checked = 0
        for rec in tr.ls_records:
            k = rec["k"]
            if rec.get("spectral") is None or k < 3:
                continue
            if not all(r["lam"] == 1.0 for r in tr.ls_records[: k]):
                break
            # skip the endgame where the projection arc s = P(x - a g) - x
            # loses digits of -a g to cancellation against x
            if float(np.linalg.norm(grads[k - 1])) < 1e-6 * gnorm1:
                continue
            direct = bar_alpha_direct(grads[k - 2], grads[k - 1], p)
            assert rec["spectral"] == pytest.approx(direct, rel=1e-8)
            checked += 1
        assert checked >= 5

    def test_feasibility_of_every_iterate(self):
        p = gen_diag_problem(SpectrumSpec("SET4", 30, 1e3, 6))
        xs = p.solution()
        bounds = BoxBounds(xs - 0.5, xs + 0.5)
        oracle = p.as_oracle()
        seen = []
        orig = oracle.grad

        def recording_grad(x):
            seen.append(x.copy())
            return orig(x)

        oracle.grad = recording_grad
        tr = solve_box(oracle, bounds, bounds.project(np.zeros(30)), BoxRunConfig())
        assert contains(bounds, tr.x_final)
        for x in seen:
            assert contains(bounds, x)

    def test_stepsize_safeguard_disjunction(self):
        # every alpha fed to direction() is either clamped into
        # [alpha_min, alpha_max] or equals 1/||g|| at its iterate
        cfg = BoxRunConfig(alpha_min=1e-2, alpha_max=1e2, max_iter=200)
        f = lambda x: -0.5 * float(x @ x)
        g = lambda x: -x
        oracle = ObjectiveOracle(f, g)
        bounds = BoxBounds(-np.ones(6), np.ones(6))
        tr = solve_box(oracle, bounds, np.full(6, 0.25), cfg)
        for i, a in enumerate(tr.alpha):
            clamped = cfg.alpha_min <= a <= cfg.alpha_max
            inverse_gnorm = tr.gnorm[i] > 0 and abs(a * tr.gnorm[i] - 1.0) <= 1e-12
            assert clamped or inverse_gnorm


def recording_oracle(f, grad):
    """An oracle, and the list of points its gradient is taken at: the
    start and every accepted iterate."""
    seen = []

    def recording_grad(x):
        seen.append(x.copy())
        return grad(x)

    return ObjectiveOracle(f, recording_grad), seen


class TestFailureEndings:
    """A failed run comes back as its trace, ended on the last accepted iterate."""

    @staticmethod
    def check(tr, oracle, accepted, termination, cause):
        assert tr.termination == termination
        assert cause in tr.failure
        assert tr.func_evals == oracle.eval_count
        assert tr.grad_evals == oracle.grad_count
        assert len(tr.f) == tr.iterations + 1 == len(accepted) == len(tr.ls_records) + 1
        assert np.array_equal(tr.x_final, accepted[-1])

    def test_nonfinite_start_diverges(self):
        p = QuadraticProblem(np.arange(1.0, 6.0), np.ones(5))
        oracle, accepted = recording_oracle(lambda x: math.inf, p.gradient)
        tr = solve_box(oracle, free_bounds(5), np.zeros(5), BoxRunConfig())
        self.check(tr, oracle, accepted, "diverged", "nonfinite objective at the starting point")
        assert tr.iterations == 0 and oracle.eval_count == 1

    def test_nonfinite_accepted_objective_diverges(self):
        p = QuadraticProblem(np.arange(1.0, 6.0), np.ones(5))
        calls = []

        def f(x):
            calls.append(None)
            return -math.inf if len(calls) == 5 else p.objective(x)

        oracle, accepted = recording_oracle(f, p.gradient)
        tr = solve_box(oracle, free_bounds(5), np.zeros(5), BoxRunConfig())
        self.check(tr, oracle, accepted, "diverged", f"nonfinite objective at iteration {tr.iterations + 1}")
        assert tr.iterations >= 1 and oracle.eval_count == 5
        assert np.isfinite(tr.f).all() and tr.f[-1] == p.objective(tr.x_final)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("variant", ["A1", "SPG"])
    def test_overflowed_start_gradient_norm_diverges(self, variant):
        # ||g|| overflows to inf: s'y = 0 would take the stepsize 1/||g|| = 0
        oracle, accepted = recording_oracle(
            lambda x: -1e200 * x[0] - x[1] ** 2 / 2, lambda x: np.array([-1e200, -x[1]])
        )
        tr = solve_box(oracle, BoxBounds([-1.0, -1.0], [1.0, 1.0]), np.array([0.0, 0.5]), BoxRunConfig(variant=variant))
        self.check(tr, oracle, accepted, "diverged", "nonfinite gradient norm at the starting point")
        assert tr.iterations == 0 and oracle.eval_count == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("variant", ["A1", "SPG"])
    def test_overflowed_gradient_norm_at_an_accepted_iterate_diverges(self, variant):
        # ||g_1|| is finite; the first accepted step reaches x_0 > 0, where ||g|| overflows
        oracle, gradient_points = recording_oracle(
            lambda x: -x[0] - 1e200 * x[0] ** 2 - x[1] ** 2 / 2, lambda x: np.array([-1.0 - 2e200 * x[0], -x[1]])
        )
        tr = solve_box(oracle, BoxBounds([-1.0, -1.0], [1.0, 1.0]), np.array([0.0, 0.5]), BoxRunConfig(variant=variant))
        # the trace ends on the start, the last iterate whose ||g|| is finite
        self.check(tr, oracle, gradient_points[:-1], "diverged", "nonfinite gradient norm at iteration 1")
        assert tr.iterations == 0 and np.isfinite(tr.gnorm).all()
        assert oracle.eval_count == 2 and oracle.grad_count == 2

    @pytest.mark.parametrize("variant", ["A1", "SPG"])
    def test_backtracks_exhausted(self, variant):
        p = QuadraticProblem(np.arange(1.0, 6.0), np.ones(5))
        calls = []

        def f(x):
            calls.append(None)
            return math.nan if len(calls) > 3 else p.objective(x)

        oracle, accepted = recording_oracle(f, p.gradient)
        tr = solve_box(oracle, free_bounds(5), np.zeros(5), BoxRunConfig(variant=variant))
        self.check(tr, oracle, accepted, "line_search_failed", f"no acceptable step after {MAX_BACKTRACKS} backtracks")
        assert tr.iterations >= 1
        # the start, each accepted search, then the failed one: a trial and 50 backtracks
        accepted_evals = sum(1 + round(-math.log2(rec["lam"])) for rec in tr.ls_records)
        assert tr.func_evals == 1 + accepted_evals + 1 + MAX_BACKTRACKS

    @pytest.mark.parametrize("variant", ["SPG", "A1"])
    def test_no_descent_direction(self, variant):
        # a stepsize capped at 1e-30 leaves x - alpha g == x, so the arc is a
        # point; A1's retry at 1/||g|| is capped the same way
        p = QuadraticProblem(np.ones(3))
        oracle, accepted = recording_oracle(p.objective, p.gradient)
        cfg = BoxRunConfig(variant=variant, alpha_min=1e-40, alpha_max=1e-30)
        tr = solve_box(oracle, free_bounds(3), np.ones(3), cfg)
        self.check(tr, oracle, accepted, "line_search_failed", "no descent direction")
        assert tr.iterations == 0 and oracle.eval_count == 1


class TestSolveSpg:
    def test_identity_quadratic_fast(self):
        p = QuadraticProblem(np.ones(4), np.array([1.0, -1.0, 2.0, 0.0]))
        tr = solve_box(p.as_oracle(), free_bounds(4), np.zeros(4), BoxRunConfig(variant="SPG", M=10))
        assert tr.termination == "gradient_tol"
        assert tr.iterations <= 2

    def test_2d_box_qp(self):
        p = QuadraticProblem(np.ones(2), np.array([2.0, 2.0]))
        tr = solve_box(p.as_oracle(), BoxBounds([0.0, 0.0], [1.0, 1.0]), np.zeros(2),
                       BoxRunConfig(variant="SPG", M=10))
        np.testing.assert_allclose(tr.x_final, [1.0, 1.0], atol=1e-8)

    def test_dispatch_through_solve_box(self):
        p = QuadraticProblem(np.ones(3))
        tr = solve_box(p.as_oracle(), free_bounds(3), np.ones(3), BoxRunConfig(variant="SPG"))
        assert tr.termination == "gradient_tol"

    def test_accepted_steps_satisfy_armijo(self):
        p = gen_diag_problem(SpectrumSpec("SET2", 30, 1e3, 5))
        tr = solve_box(p.as_oracle(), free_bounds(30), np.ones(30),
                       BoxRunConfig(variant="SPG", M=10))
        for rec in tr.ls_records:
            assert rec["f_new"] <= rec["f_max"] + rec["sigma"] * rec["lam"] * rec["gd"]
            assert rec["f_r"] == rec["f_max"]

    def test_backtracks_through_a_nan_trial(self):
        # the shared search treats a NaN trial value as a rejected step
        p = QuadraticProblem(np.arange(1.0, 6.0), np.ones(5))
        calls = []

        def f(x):
            calls.append(None)
            return float("nan") if len(calls) == 2 else p.objective(x)

        tr = solve_box(ObjectiveOracle(f, p.gradient), free_bounds(5), np.zeros(5),
                       BoxRunConfig(variant="SPG"))
        first = tr.ls_records[0]
        assert not first["unit"] and first["lam"] < 1.0
        assert tr.termination == "gradient_tol"
        np.testing.assert_allclose(tr.x_final, p.solution(), atol=1e-5)


class TestSharedBoxLoop:
    @pytest.mark.parametrize("variant", ["A1", "A1_BB1", "A1_BB2"])
    def test_modified_y_once_per_iteration(self, variant, monkeypatch):
        calls = []
        original = stepsize.modified_y

        def counting(s, y):
            calls.append(None)
            return original(s, y)

        monkeypatch.setattr(stepsize, "modified_y", counting)
        # count a second masked difference formed by the solver itself, too
        monkeypatch.setattr(box_solver, "modified_y", counting, raising=False)
        p = gen_diag_problem(SpectrumSpec("SET2", 40, 1e3, 7))
        tr = solve_box(p.as_oracle(), free_bounds(40), np.ones(40), BoxRunConfig(variant=variant, h=4, s=4))
        assert tr.iterations > 10
        assert len(calls) == tr.iterations

    def test_spg_keeps_no_stepsize_memory(self, monkeypatch):
        pushes = []
        monkeypatch.setattr(stepsize.StepsizeMemory, "push", lambda *a, **k: pushes.append(None))
        p = gen_diag_problem(SpectrumSpec("SET1", 30, 1e2, 4))
        tr = solve_box(p.as_oracle(), free_bounds(30), np.ones(30), BoxRunConfig(variant="SPG"))
        assert tr.termination == "gradient_tol"
        assert pushes == [] and set(tr.branch) <= {"bb", "sy_nonpos"}
