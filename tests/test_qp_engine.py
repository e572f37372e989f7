from collections import deque

import numpy as np
import pytest

from specgrad.generators import SpectrumSpec, gen_diag_problem
from specgrad.problem import QuadraticProblem
from specgrad.qp_engine import (
    METHODS,
    RunTrace,
    StrategySpec,
    run,
    stepsize_history_diagnostic,
)
from specgrad.stepsize import (
    StepsizeMemory,
    aopt_stepsize,
    bar_alpha_direct,
    bb_stepsizes,
    sd_stepsize,
    yuan_stepsize,
)


def small_problem(seed=0, n=60, kappa=100.0, family="TP1"):
    return gen_diag_problem(SpectrumSpec(family, n, kappa, seed))


class TestStrategySpec:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            StrategySpec("NEWTON")

    def test_case_insensitive(self):
        assert StrategySpec("news").method == "NEWS"

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            StrategySpec("SDC", h=1, s=6)
        with pytest.raises(ValueError):
            StrategySpec("NEWS", h=10, s=0)
        StrategySpec("DY", h=1, s=0)  # unused parameters are not validated

    def test_abb_validation(self):
        with pytest.raises(ValueError):
            StrategySpec("ABBMIN2", tau=1.5)
        with pytest.raises(ValueError):
            StrategySpec("ABBMIN2", abb_window=0)


class TestRunBasics:
    @pytest.mark.parametrize("method", METHODS)
    def test_identity_converges_in_one_step(self, method):
        p = QuadraticProblem(np.ones(3))
        tr = run(p, np.array([1.0, -2.0, 3.0]), StrategySpec(method, h=2, s=1), eps=1e-12)
        assert tr.iterations == 1
        assert tr.termination == "gradient_tol"
        assert tr.alpha[0] == 1.0

    def test_zero_initial_gradient(self):
        p = QuadraticProblem(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        tr = run(p, np.array([1.0, 1.0]), StrategySpec("SD"), eps=1e-9)
        assert tr.iterations == 0
        assert tr.termination == "gradient_tol"

    def test_eps_validation(self):
        p = QuadraticProblem(np.ones(2))
        with pytest.raises(ValueError):
            run(p, np.ones(2), StrategySpec("SD"), eps=2.0)

    def test_iter_cap(self):
        p = small_problem(3, kappa=1e4)
        tr = run(p, np.ones(p.dim), StrategySpec("SD"), eps=1e-12, max_iter=50)
        assert tr.termination == "iter_cap"
        assert tr.iterations == 50
        assert tr.gnorm[-1] > 1e-12 * tr.gnorm[0]

    def test_solution_reached(self):
        p = gen_diag_problem(SpectrumSpec("SET1", 80, 1e3, 5))
        tr = run(p, np.ones(80), StrategySpec("NEWS", h=4, s=8), eps=1e-10)
        assert tr.termination == "gradient_tol"
        err = np.linalg.norm(tr.x_final - p.solution())
        assert err <= 1e-6 * max(1.0, np.linalg.norm(p.solution()))

    def test_sparse_problem_run(self):
        from specgrad.generators import LaplaceSpec, gen_laplace3d

        p, x_star = gen_laplace3d(LaplaceSpec("A", 3))
        tr = run(p, np.zeros(27), StrategySpec("NEWS", h=2, s=2), eps=1e-10)
        assert tr.termination == "gradient_tol"
        assert np.linalg.norm(tr.x_final - x_star) <= 1e-7 * np.linalg.norm(x_star)

    def test_determinism_bitwise(self):
        p = small_problem(7, family="SET3", kappa=1e4)
        a = run(p, np.ones(p.dim), StrategySpec("NEWS2", h=4, s=10), eps=1e-10)
        b = run(p, np.ones(p.dim), StrategySpec("NEWS2", h=4, s=10), eps=1e-10)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.gnorm, b.gnorm)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.branch == b.branch

    def test_trace_shapes(self):
        p = small_problem(1)
        tr = run(p, np.ones(p.dim), StrategySpec("SD"), eps=1e-8)
        assert len(tr.f) == len(tr.gnorm) == tr.iterations + 1
        assert len(tr.alpha) == len(tr.branch) == tr.iterations
        assert tr.gnorm[-1] <= 1e-8 * tr.gnorm[0]
        assert tr.final_gnorm_ratio <= 1e-8

    def test_trace_csv(self, tmp_path):
        p = small_problem(1)
        tr = run(p, np.ones(p.dim), StrategySpec("SD"), eps=1e-6)
        path = tmp_path / "trace.csv"
        tr.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,f,gnorm,alpha,branch"
        assert len(lines) == tr.iterations + 2
        assert lines[-1].endswith(",,")


class TestStepsizeBehavior:
    def test_alphas_positive_finite_and_convergent(self):
        for method in METHODS:
            p = small_problem(2, n=40)
            tr = run(p, np.ones(40), StrategySpec(method, h=3, s=5), eps=1e-10)
            assert tr.termination == "gradient_tol", method
            assert np.all(tr.alpha > 0.0)
            assert np.all(np.isfinite(tr.alpha))

    def test_dy_two_dimensional_fast_termination(self):
        # the two-point stepsize inside the cycle finishes 2-D problems
        p = QuadraticProblem(np.array([1.0, 10.0]))
        tr = run(p, np.array([10.0, 1.0]), StrategySpec("DY"), eps=1e-10)
        assert tr.termination == "gradient_tol"
        assert tr.iterations <= 6

    def test_news_family_alphas_within_spectrum(self):
        for method in ("NEWS0", "NEWS", "NEWS2", "NEWS3", "NEWS4"):
            p = small_problem(4, n=50, kappa=200.0)
            d = p.diagonal
            tr = run(p, np.ones(50), StrategySpec(method, h=4, s=9), eps=1e-10)
            assert np.all(tr.alpha >= 1.0 / d.max() - 1e-12)
            assert np.all(tr.alpha <= 1.0 / d.min() + 1e-12)

    def test_monotone_strategies(self):
        for method in ("SD", "AOPT", "DY", "NEWS0", "NEWS"):
            for seed in range(3):
                p = small_problem(seed, family="SET2", kappa=1e3)
                tr = run(p, np.ones(p.dim), StrategySpec(method, h=4, s=9), eps=1e-10)
                df = np.diff(tr.f)
                assert np.all(df <= 1e-12 * np.abs(tr.f[:-1])), method

    def test_first_step_bootstrap(self):
        p = small_problem(6, n=30)
        g1 = p.gradient(np.ones(30))
        for method in ("NEWS0", "NEWS", "NEWS2", "NEWS3", "NEWS4", "AOPT", "AOPT_RETARD"):
            tr = run(p, np.ones(30), StrategySpec(method, h=3, s=4), eps=1e-10)
            assert tr.alpha[0] == pytest.approx(aopt_stepsize(g1, p), rel=1e-14)
        for method in ("SD", "DY", "SDC", "ABBMIN2", "BB1", "BB2"):
            tr = run(p, np.ones(30), StrategySpec(method, h=3, s=4), eps=1e-10)
            gg = float(g1 @ g1)
            assert tr.alpha[0] == pytest.approx(gg / float(g1 @ p.apply(g1)), rel=1e-14)


class TestPhaseBookkeeping:
    def test_news_branch_labels_match_mod(self):
        p = small_problem(8, n=50, kappa=1e3)
        h, s = 4, 7
        tr = run(p, np.ones(50), StrategySpec("NEWS", h=h, s=s), eps=1e-11)
        for i, label in enumerate(tr.branch):
            k = i + 1
            if k % (h + s) < h:
                assert label == "long"
            else:
                assert label in ("short", "fallback")

    def test_dy_labels(self):
        p = small_problem(9, n=50, kappa=1e3)
        tr = run(p, np.ones(50), StrategySpec("DY"), eps=1e-11)
        for i, label in enumerate(tr.branch):
            k = i + 1
            assert label == ("long" if k % 4 < 2 else "short")

    def test_sdc_freezes_short_stepsize(self):
        p = small_problem(10, n=50, kappa=1e3)
        h, s = 4, 5
        tr = run(p, np.ones(50), StrategySpec("SDC", h=h, s=s), eps=1e-11)
        for i, label in enumerate(tr.branch):
            k = i + 1
            in_short = k % (h + s) >= h
            assert label == ("short" if in_short else "long")
            if in_short and (k % (h + s)) > h and i > 0:
                assert tr.alpha[i] == tr.alpha[i - 1]

    def test_fallback_only_when_retard_cold(self):
        # h=2 puts the first short step at k=2 where no one-step-back value exists
        p = small_problem(11, n=40)
        tr = run(p, np.ones(40), StrategySpec("NEWS", h=2, s=3), eps=1e-10)
        assert tr.branch[1] == "fallback"


class TestEigencomponents:
    # on a diagonal problem the retained gradients are the eigencomponents

    def test_eigenvector_gradient_is_unit_column(self):
        p = QuadraticProblem(np.array([1.0, 2.0, 5.0]))
        x1 = p.solution() + np.array([0.0, 1.0, 0.0])  # gradient along second eigenvector
        tr = run(p, x1, StrategySpec("SD"), eps=1e-13, max_iter=3, retain_gradients=True)
        mu = np.asarray(tr.gradients)
        assert mu[0][0] == 0.0 and mu[0][2] == 0.0 and mu[0][1] != 0.0

    def test_vanished_component_stays_vanished(self):
        p = QuadraticProblem(np.array([1.0, 3.0, 9.0]))
        x1 = p.solution() + np.array([1.0, 0.0, 0.5])
        tr = run(p, x1, StrategySpec("AOPT"), eps=1e-12, max_iter=200, retain_gradients=True)
        mu = np.asarray(tr.gradients)
        norms = np.linalg.norm(mu, axis=1)
        assert np.all(np.abs(mu[:, 1]) <= 1e-10 * np.maximum(norms, 1e-300))


class TestDiagnostics:
    def test_short_trace_empty(self):
        p = QuadraticProblem(np.ones(2))
        tr = run(p, np.ones(2), StrategySpec("SD"), eps=1e-9, retain_gradients=True)
        # identity converges after one step: two retained gradients, one pair
        series = stepsize_history_diagnostic(tr, p)
        assert len(series) == len(tr.gradients) - 1

    def test_no_retention_empty(self):
        p = small_problem(12, n=30)
        tr = run(p, np.ones(30), StrategySpec("AOPT"), eps=1e-10)
        assert stepsize_history_diagnostic(tr, p) == []

    def test_single_iterate_empty(self):
        p = QuadraticProblem(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        tr = run(p, np.array([1.0, 1.0]), StrategySpec("SD"), eps=1e-9,
                 retain_gradients=True)  # starts at the minimizer
        assert tr.iterations == 0
        assert stepsize_history_diagnostic(tr, p) == []

    def test_matches_direct_formulas(self):
        p = small_problem(13, n=40)
        tr = run(p, np.ones(40), StrategySpec("AOPT"), eps=1e-12, max_iter=50,
                 retain_gradients=True)
        series = stepsize_history_diagnostic(tr, p)
        assert series[0][0] == 2
        for k, bar, hat in series[:10]:
            g_prev, g_cur = tr.gradients[k - 2], tr.gradients[k - 1]
            assert bar == pytest.approx(bar_alpha_direct(g_prev, g_cur, p), rel=1e-12)


def _bb_pair(tr, i):
    """BB pair for step i from the retained gradients and the step before it."""
    mem = StepsizeMemory()
    mem.start(tr.gradients[i - 1])
    mem.push(tr.gradients[i], -tr.alpha[i - 1] * tr.gradients[i - 1], alpha_used=tr.alpha[i - 1])
    return bb_stepsizes(mem)


def _reference_alphas(method, tr, p, spec):
    """Every alpha_k, branch label and relative tolerance, recomputed from the
    retained gradients with the reference formulas of ``specgrad.stepsize``.

    The engine forms the spectral quotient from cached products through
    2 - 2cos(g_prev, g_cur), which loses up to a few digits to cancellation
    against the direct formula; its short steps are compared at 1e-10.
    """
    G = tr.gradients
    sd = [sd_stepsize(g, p) for g in G[:-1]]
    aopt = [aopt_stepsize(g, p) for g in G[:-1]]
    gn = [float(np.linalg.norm(g)) for g in G[:-1]]
    cycle = spec.h + spec.s
    window = deque(maxlen=spec.abb_window)
    frozen = None
    out = []
    for i in range(tr.iterations):
        k = i + 1
        if k == 1:
            out.append((sd[0] if method in ("SD", "BB1", "BB2", "DY", "SDC", "ABBMIN2") else aopt[0], "long", 1e-12))
            continue
        bb1, bb2 = _bb_pair(tr, i)
        long_val = {
            "SD": sd[i], "AOPT": aopt[i], "AOPT_RETARD": aopt[i - 1], "BB1": bb1, "BB2": bb2,
            "DY": sd[i], "SDC": sd[i], "ABBMIN2": bb1, "NEWS0": aopt[i], "NEWS": aopt[i],
            "NEWS2": aopt[i - 1], "NEWS3": bb1, "NEWS4": bb2,
        }[method]
        if method == "DY" and k % 4 >= 2:
            out.append((yuan_stepsize(sd[i - 1], sd[i], gn[i - 1], gn[i]), "short", 1e-12))
        elif method == "SDC" and k % cycle >= spec.h:
            if k % cycle == spec.h:
                frozen = yuan_stepsize(sd[i - 1], sd[i], gn[i - 1], gn[i])
            out.append((frozen, "short", 1e-12))
        elif method == "ABBMIN2":
            window.append(bb2)
            out.append((min(window), "short", 1e-12) if bb2 / bb1 < spec.tau else (bb1, "long", 1e-12))
        elif method.startswith("NEWS") and k % cycle >= spec.h:
            # NEWS0 reads the current gradient pair, the rest the pair one step back
            pair = (G[i - 1], G[i]) if method == "NEWS0" else (G[i - 2], G[i - 1]) if k >= 3 else None
            if pair is None:
                out.append((long_val, "fallback", 1e-12))
            else:
                out.append((min(long_val, bar_alpha_direct(*pair, p)), "short", 1e-10))
        else:
            out.append((long_val, "long", 1e-12))
    return out


class TestRuleTable:
    @pytest.mark.parametrize("method", METHODS)
    def test_alphas_follow_the_stepsize_laws(self, method):
        p = small_problem(14, n=40, kappa=50.0, family="SET1")
        spec = StrategySpec(method, h=3, s=4, abb_window=3)
        tr = run(p, np.ones(40), spec, eps=1e-10, retain_gradients=True)
        assert tr.termination == "gradient_tol" and tr.iterations >= 12
        expected = _reference_alphas(method, tr, p, spec)
        assert tr.branch == [label for _, label, _ in expected]
        for i, (alpha, _, rel) in enumerate(expected):
            assert tr.alpha[i] == pytest.approx(alpha, rel=rel, abs=0.0), (method, i + 1)
        if method in ("DY", "SDC", "ABBMIN2") or method.startswith("NEWS"):
            assert "short" in tr.branch
