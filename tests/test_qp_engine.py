import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgrad import bench, qp_engine
from specgrad.generators import (
    LaplaceSpec,
    SpectrumSpec,
    gen_diag_problem,
    gen_laplace3d,
    gen_rotated_problem,
)
from specgrad.problem import DOT_CHUNK, QuadraticProblem, dot, row_dots
from specgrad.qp_engine import (
    BLOCK_ELEMENTS,
    METHODS,
    STEP_CHUNK,
    RunTrace,
    StrategySpec,
    run,
    run_many,
    stepsize_history_diagnostic,
)
from specgrad.stepsize import bar_alpha_direct, yuan_stepsize

from reference import MONOTONE, aopt_stepsize, bb_pair, reference_run, sd_stepsize


def small_problem(seed=0, n=60, kappa=100.0, family="TP1"):
    return gen_diag_problem(SpectrumSpec(family, n, kappa, seed))


def record_block_arrays(monkeypatch) -> list:
    """The list that every array the engine takes from ``aligned_empty`` is appended to."""
    taken, empty = [], qp_engine.aligned_empty

    def recording_empty(shape):
        taken.append(empty(shape))
        return taken[-1]

    monkeypatch.setattr(qp_engine, "aligned_empty", recording_empty)
    return taken


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
            d = p.hessian
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
    return bb_pair(-tr.alpha[i - 1] * tr.gradients[i - 1], tr.gradients[i] - tr.gradients[i - 1])


def _reference_alphas(method, tr, p, spec):
    """Every alpha_k, branch label and relative tolerance, recomputed from the
    retained gradients with the reference formulas (``reference`` for SD, AOPT
    and the BB pair, ``specgrad.stepsize`` for the rest).

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


def assert_same_trace(a, b):
    """Every field of two traces bitwise equal."""
    for name in ("f", "gnorm", "alpha", "x_final"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    for name in ("branch", "iterations", "termination", "failure"):
        assert getattr(a, name) == getattr(b, name), name
    assert (a.gradients is None) == (b.gradients is None)
    if a.gradients is not None:
        assert len(a.gradients) == len(b.gradients)
        assert all(np.array_equal(u, v) for u, v in zip(a.gradients, b.gradients))


def assert_rows_equal_solo_runs(p, x1, specs, **kw):
    traces = run_many(p, x1, specs, **kw)
    assert len(traces) == len(specs)
    for spec, trace in zip(specs, traces):
        assert_same_trace(trace, run(p, x1, spec, **kw))
    return traces


def every_method(h=4, s=9):
    return [StrategySpec(m, h=h, s=s) for m in METHODS]


SPECS = st.builds(
    StrategySpec,
    method=st.sampled_from(METHODS),
    h=st.integers(2, 12),
    s=st.integers(1, 12),
    abb_window=st.integers(1, 4),
)


class TestRunMany:
    """A block of strategies gives each the trace of its run alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["TP1", "SET1", "SET2", "SET3", "SET4", "SET5"]),
        n=st.integers(3, 50),
        kappa=st.floats(2.0, 1e6),
        seed=st.integers(0, 2**16),
        # a random multiset: duplicates share a block
        specs=st.lists(SPECS, min_size=1, max_size=8).flatmap(lambda xs: st.permutations(xs + xs[:2])),
        eps=st.floats(1e-13, 0.9),
        iter_cap=st.integers(1, 80),
        retain=st.booleans(),
    )
    def test_rows_equal_solo_runs_on_diagonal_problems(
        self, family, n, kappa, seed, specs, eps, iter_cap, retain
    ):
        p = gen_diag_problem(SpectrumSpec(family, n, kappa, seed))
        traces = assert_rows_equal_solo_runs(
            p, np.ones(n), specs, eps=eps, max_iter=iter_cap, retain_gradients=retain
        )
        for spec, tr in zip(specs, traces):
            # finite traces
            assert np.isfinite(tr.f).all() and np.isfinite(tr.gnorm).all() and np.isfinite(tr.alpha).all()
            # a termination consistent with the last gnorm
            converged = tr.gnorm[-1] <= eps * tr.gnorm[0]
            assert tr.termination == ("gradient_tol" if converged else "iter_cap")
            assert converged or tr.iterations == iter_cap
            assert len(tr.gnorm) == tr.iterations + 1
            if spec.method in MONOTONE:
                # rounding of the f recurrence allowed, a few ulps of its terms
                slack = 1e-12 * (np.abs(tr.f[:-1]) + tr.alpha * tr.gnorm[:-1] ** 2)
                assert (np.diff(tr.f) <= slack).all(), spec

    def test_dense_problem(self):
        p = gen_rotated_problem(SpectrumSpec("SET1", 60, 1e3, 6))
        assert_rows_equal_solo_runs(p, np.ones(60), every_method(), eps=1e-9, max_iter=2000)

    def test_sparse_laplace_problem(self):
        p, _ = gen_laplace3d(LaplaceSpec("B", 6))
        assert_rows_equal_solo_runs(p, np.zeros(p.dim), every_method(3, 2), eps=1e-9, max_iter=2000)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_failing_rows_beside_healthy_ones(self):
        specs = every_method(3, 2) + [StrategySpec("DY"), StrategySpec("BB1")]
        cases = [
            # indefinite: AOPT hits the cap, SD overflows and every other
            # row meets g'Ag <= 0
            (np.diag([1.0, 3.0, 10.0, -1.0]), np.ones(4), np.ones(4),
             {"iter_cap", "diverged"}, {"nonfinite objective", "nonpositive curvature"}),
            # tiny eigenvalues and a huge start: DY's and SDC's two-point
            # step overflows, the other rows converge
            (np.array([1e-10, 2e-10]), None, np.full(2, 1e155), {"gradient_tol", "diverged"}, {"stepsize undefined"}),
        ]
        for hessian, b, x1, terminations, failures in cases:
            traces = assert_rows_equal_solo_runs(
                QuadraticProblem(hessian, b), x1, specs, eps=1e-6, max_iter=3000, retain_gradients=True
            )
            assert {tr.termination for tr in traces} == terminations
            assert {tr.failure.split(" at ")[0] for tr in traces if tr.termination == "diverged"} == failures

    @pytest.mark.parametrize("n", [999, 1000, 1001])
    @pytest.mark.parametrize("dense", [False, True], ids=["diag", "dense"])
    def test_rows_of_any_length(self, n, dense):
        # the block's arrays start on cache lines; the rows of n = 999 and
        # 1001 do not, and each still gives its solo run's bits
        spec = SpectrumSpec("SET1", n, 1e4, 5)
        p = gen_rotated_problem(spec) if dense else gen_diag_problem(spec)
        assert_rows_equal_solo_runs(p, np.ones(n), every_method(), eps=1e-9, max_iter=60)

    def test_block_height_comes_from_the_problem_size(self, monkeypatch):
        # 3 rows of n = 40 fit one block of 2**16 elements; with room for
        # two rows the third runs in a second block; the traces are the same
        p = gen_diag_problem(SpectrumSpec("SET2", 40, 1e3, 2))
        specs = [StrategySpec("BB1"), StrategySpec("NEWS", h=3, s=5), StrategySpec("DY")]
        whole = run_many(p, np.ones(40), specs, eps=1e-10)
        monkeypatch.setattr("specgrad.qp_engine.BLOCK_ELEMENTS", 80)
        for a, b in zip(whole, run_many(p, np.ones(40), specs, eps=1e-10)):
            assert_same_trace(a, b)

    def test_no_specs(self):
        assert run_many(QuadraticProblem(np.ones(2)), np.ones(2), []) == []

    def test_strided_start_keeps_the_bits(self):
        # the engine reads x1 in place, but copies a strided one: a strided
        # BLAS dot sums in another order than a contiguous one
        p = small_problem(n=1000)
        x1 = np.random.default_rng(4).standard_normal(2000)[::2]
        specs = [StrategySpec("BB1"), StrategySpec("NEWS", h=3, s=5)]
        kw = {"eps": 1e-8, "max_iter": 50}
        for a, b in zip(run_many(p, x1, specs, **kw), run_many(p, x1.copy(), specs, **kw)):
            assert_same_trace(a, b)


class TestAlignedBuffers:
    """A diagonal block's gradients and Hessian products, and the Hessian
    itself, start on 64-byte cache lines; a stencil block writes every
    product into one such array."""

    def test_dot_operands_and_products(self, monkeypatch):
        n = 1000
        p = gen_diag_problem(SpectrumSpec("TP1", n, 1e4, 1))
        dotted, outs, heights = set(), [], []
        apply = QuadraticProblem.apply

        def recording_dots(a, b, totals=None):
            dotted.update((a.ctypes.data, b.ctypes.data))
            return row_dots(a, b, totals)

        def recording_apply(self, v, out=None):
            w = apply(self, v, out)
            if out is not None:  # the start gradient's product, then the block's
                heights.append(len(v))
                outs.append(w)
            return w

        monkeypatch.setattr(qp_engine, "row_dots", recording_dots)
        monkeypatch.setattr(QuadraticProblem, "apply", recording_apply)
        specs = [StrategySpec(m, h=h, s=s) for m in ("NEWS0", "NEWS") for h in (10, 20) for s in (20, 30, 50, 80, 100)]
        run_many(p, np.ones(n), specs, eps=1e-6, max_iter=200)
        # the start gradient, one n-vector in a map of its own
        start = outs.pop(0)
        assert heights.pop(0) == n and start.shape == (n,) and start.ctypes.data % 64 == 0
        products = {w.ctypes.data for w in outs}
        # one block of 20 rows, from which rows left as they stopped
        assert heights[0] == 20 > heights[-1]
        starts = dotted | products | {p.hessian.ctypes.data}
        assert products and products <= dotted and len(starts) >= 4
        assert [a % 64 for a in starts] == [0] * len(starts)

    @pytest.mark.parametrize("methods", [("NEWS0", "NEWS"), ("DY", "SD")], ids=["lagged", "in-place"])
    def test_a_block_takes_five_arrays(self, monkeypatch, methods):
        # X, G, the scratch S, the stepsizes AL and W, and no next-gradient
        # array; each stopped row's x_final is a copy of its row
        n = 1000
        p = gen_diag_problem(SpectrumSpec("TP1", n, 1e4, 1))
        taken = record_block_arrays(monkeypatch)
        specs = [StrategySpec(m, h=h, s=s) for m in methods for h in (10, 20) for s in (20, 30, 50, 80, 100)]
        traces = run_many(p, np.ones(n), specs, eps=1e-6, max_iter=200)
        # after the start gradient's one n-vector
        assert [a.shape for a in taken] == [(n,)] + [(20, n)] * 5
        assert not any(np.shares_memory(tr.x_final, a) for tr in traces for a in taken)

    def test_stencil_products_go_into_one_array(self, monkeypatch):
        p, _ = gen_laplace3d(LaplaceSpec("A", 8))
        outs, apply = [], QuadraticProblem.apply

        def recording_apply(self, v, out=None):
            outs.append(out)
            return apply(self, v, out)

        monkeypatch.setattr(QuadraticProblem, "apply", recording_apply)
        trace = run(p, np.zeros(p.dim), StrategySpec("DY"), eps=1e-6)
        # after the start's gradient, into a map of its own, the block's own
        # start product into its gradient array, then the block's first
        # product and one per step
        first, start, *block = outs
        assert first.shape == (p.dim,) and first.ctypes.data % 64 == 0
        assert first is not start and first is not block[0] and len(block) == trace.iterations + 1
        assert all(w is block[0] for w in block) and block[0].ctypes.data % 64 == 0
        assert start is not block[0] and start.ctypes.data % 64 == 0


# (Hessian, b, start, strategy, cause named in the failure, steps taken)
FAILURES = {
    "singular": ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], [1.0, 1.0], "SD", "curvature at iteration 1: g'Ag = 0", 0),
    "indefinite_dy": (np.diag([1.0, 3.0, 10.0, -1.0]), np.ones(4), np.ones(4), "DY", "nonpositive curvature", 2),
    "overflow": ([1e300, 1.0], [1.0, 1.0], [1.0, 1.0], "SD", "nonfinite gradient norm or objective", 0),
    "overflowed_dy": (
        [1e-10, 2e-10], None, np.full(2, 1e155), "DY",
        "stepsize undefined at iteration 2: the DY stepsize overflowed", 1,
    ),
}


class TestNamedFailures:
    """Numerical failures end ``diverged`` with the trace so far."""

    @pytest.mark.parametrize("case", FAILURES)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_run_returns_the_failed_trace(self, case):
        hessian, b, x1, method, cause, steps = FAILURES[case]
        p = QuadraticProblem(np.asarray(hessian), b)
        # the failure comes back as the trace, not raised
        trace = run(p, np.asarray(x1), StrategySpec(method), eps=1e-9)
        assert trace.termination == "diverged"
        assert cause in trace.failure
        assert len(trace.gnorm) == trace.iterations + 1 == len(trace.alpha) + 1
        assert trace.iterations == steps
        # x_final is the last recorded iterate
        assert p.objective(trace.x_final) == pytest.approx(trace.f[-1])

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_curvature_for_every_method(self, method):
        p = QuadraticProblem(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))
        (trace,) = run_many(p, np.ones(2), [StrategySpec(method)])
        assert (trace.termination, trace.iterations) == ("diverged", 0)
        assert trace.failure == "nonpositive curvature at iteration 1: g'Ag = 0"
        assert np.array_equal(trace.x_final, np.ones(2))


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_in_subprocess(script, threads):
    """Standard output of ``script`` in a fresh interpreter whose OpenBLAS
    runs ``threads`` threads (the count is fixed when numpy loads)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, (threads, out.stderr)
    return out.stdout


@pytest.mark.parametrize("n", [1, 7, 1000, DOT_CHUNK])
def test_dot_is_the_vector_dot_up_to_a_chunk(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, 5, n))
    assert dot(a[0], b[0]) == float(a[0].dot(b[0]))
    assert row_dots(a[0], b[0]) == [float(a[0].dot(b[0]))]
    assert row_dots(a, b) == [float(u @ v) for u, v in zip(a, b)]


@pytest.mark.parametrize("n", [DOT_CHUNK + 1, 3 * DOT_CHUNK, 20000])
def test_long_dots_sum_their_chunks_left_to_right(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, 4, n))
    for u, v, got in zip(a, b, row_dots(a, b)):
        parts = [float(u[i : i + DOT_CHUNK] @ v[i : i + DOT_CHUNK]) for i in range(0, n, DOT_CHUNK)]
        total = parts[0]
        for part in parts[1:]:
            total += part
        assert dot(u, v) == got == total


def test_dots_are_thread_independent_at_laplace_size():
    # dot, a one-row row_dots, a block's row_dots and the running sum
    # over STEP_CHUNK spans agree bitwise, and their bits are the same
    # under 1 and 2 BLAS threads
    script = (
        "import numpy as np\n"
        "from specgrad.problem import dot, row_dots\n"
        "from specgrad.qp_engine import STEP_CHUNK\n"
        "rng = np.random.default_rng(3)\n"
        "a = rng.standard_normal((3, 216000)); b = rng.standard_normal((3, 216000)) * rng.random(216000)\n"
        "vec = [dot(u, v) for u, v in zip(a, b)]\n"
        "assert row_dots(a, b) == vec and [row_dots(u, v)[0] for u, v in zip(a, b)] == vec\n"
        "spanned = []\n"
        "for u, v in zip(a, b):\n"
        "    total = None\n"
        "    for lo in range(0, 216000, STEP_CHUNK):\n"
        "        total = dot(u[lo : lo + STEP_CHUNK], v[lo : lo + STEP_CHUNK], total)\n"
        "    spanned.append(total)\n"
        "assert spanned == vec\n"
        "print([x.hex() for x in vec])\n"
    )
    one, two = (run_in_subprocess(script, threads) for threads in ("1", "2"))
    assert one == two and one.count("0x") == 3


@pytest.mark.parametrize("n", [STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + DOT_CHUNK + 17])
def test_spans_keep_the_plain_loop_bits(n):
    # one full span, a last span of one element, and a last span of one
    # chunk and a tail: every bit of the plain reference loop
    rng = np.random.default_rng(n)
    d = rng.permutation(np.geomspace(1.0, 1e3, n))
    b = rng.standard_normal(n)
    p = QuadraticProblem(d, b)
    for method, kw in (("SD", {}), ("BB1", {}), ("DY", {}), ("NEWS", {"h": 3, "s": 2})):
        trace = run(p, np.ones(n), StrategySpec(method, **kw), eps=1e-8, max_iter=60)
        f, gnorm, alpha, x_final, termination = reference_run(d, b, np.ones(n), method, eps=1e-8, max_iter=60, **kw)
        assert (trace.termination, trace.iterations) == (termination, len(alpha)) == ("iter_cap", 60)
        for got, want in ((trace.f, f), (trace.gnorm, gnorm), (trace.alpha, alpha), (trace.x_final, x_final)):
            assert got.tobytes() == want.tobytes(), method


@pytest.fixture(scope="module")
def laplace_b33():
    # n = 35,937: every block is one row
    p, _ = gen_laplace3d(LaplaceSpec("B", 33))
    assert BLOCK_ELEMENTS // p.dim == 1
    return p


class TestOneRowBlocksInTurn:
    """Several one-row blocks of one ``run_many`` call, run one after
    another and each walked in spans; every row is its solo run."""

    def test_rows_equal_solo_runs_with_retention(self, laplace_b33):
        # a short cap keeps the retained gradients small
        x1 = np.zeros(laplace_b33.dim)
        assert_rows_equal_solo_runs(laplace_b33, x1, every_method(3, 2), eps=1e-9, max_iter=12, retain_gradients=True)

    def test_rows_equal_solo_runs(self, laplace_b33):
        x1 = np.zeros(laplace_b33.dim)
        traces = assert_rows_equal_solo_runs(laplace_b33, x1, every_method(3, 2), eps=1e-3, max_iter=300)
        assert {tr.termination for tr in traces} == {"gradient_tol"}

    def test_shared_start_is_not_written(self, laplace_b33, monkeypatch):
        # every block reads the caller's start itself, and none writes it
        seen = []
        run_block = qp_engine._run_block

        def recording(p, x, *args):
            seen.append((x, x.copy()))
            yield from run_block(p, x, *args)

        monkeypatch.setattr(qp_engine, "_run_block", recording)
        x1 = np.ones(laplace_b33.dim)
        run_many(laplace_b33, x1, every_method(3, 2), eps=1e-9, max_iter=30)
        assert len(seen) == len(METHODS)
        for x, x_before in seen:
            assert x is x1 and np.array_equal(x, x_before)
        assert np.array_equal(x1, np.ones(laplace_b33.dim))

    def test_finished_traces_are_freed_before_the_next_block(self, laplace_b33, monkeypatch):
        # the plan runner turns each trace into rows as its row stops and
        # drops it, so when a block takes its arrays every earlier trace has
        # been delivered and its x_final is gone
        desc = {"kind": "laplace3d", "variant": "B", "N": 33}
        plan = bench.ExperimentPlan.from_json({
            "problems": [desc],
            "strategies": [{"method": m} for m in ("SD", "BB1", "DY", "ABBMIN2")],
            "tolerances": [1e-9],
            "iter_cap": 20,
        })
        finals, seen = [], []
        rows, empty = bench._rows, qp_engine.aligned_empty

        def recording_rows(trace, *args):
            finals.append(weakref.ref(trace.x_final))
            return rows(trace, *args)

        def recording_empty(shape):
            seen.append((len(finals), sum(ref() is not None for ref in finals)))
            return empty(shape)

        start, meta = np.zeros(laplace_b33.dim), {"family": "LAPLACE-B", "kappa": 1.0}
        monkeypatch.setattr(bench, "gen_instance", lambda *a: (laplace_b33, start, meta))
        monkeypatch.setattr(bench, "_rows", recording_rows)
        monkeypatch.setattr(qp_engine, "aligned_empty", recording_empty)
        assert [r["iters"] for r in bench._execute(("qp", desc, 0), plan)] == [20] * 4
        # (traces delivered, x_finals alive) at every array a block takes
        assert sorted(set(seen)) == [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert len(finals) == 4 and all(ref() is None for ref in finals)

    @pytest.mark.parametrize("method", ["DY", "NEWS"])  # G updated in place; G written back from S
    def test_a_block_takes_three_vectors_and_one_span(self, laplace_b33, monkeypatch, method):
        # X, G and W, plus a span of scratch, after the start gradient's one
        # n-vector; the stopped row's x_final is X
        taken = record_block_arrays(monkeypatch)
        n = laplace_b33.dim
        trace = run(laplace_b33, np.zeros(n), StrategySpec(method, h=3, s=2), eps=1e-9, max_iter=10)
        assert trace.iterations == 10
        start, *taken = taken
        assert start.size == n and not np.shares_memory(trace.x_final, start)
        assert sorted(a.size for a in taken) == [STEP_CHUNK, n, n, n]
        assert [np.shares_memory(trace.x_final, a) for a in taken] == [True, False, False, False]

    def test_the_heap_holds_no_n_vector(self, laplace_b33):
        # every n-vector lives in a map of its own, outside the heap that
        # numpy's allocations are traced in; the start gradient from the
        # heap took a peak of 1.6 n-vectors here
        n = laplace_b33.dim
        x1 = np.zeros(n)
        tracemalloc.start()
        try:
            trace = run(laplace_b33, x1, StrategySpec("DY"), eps=1e-9, max_iter=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations == 5
        assert peak < 8 * n

    def test_traces_are_thread_independent(self):
        # all 13 methods on the one-row Laplacian; digest of every field
        # under 1 and 2 BLAS threads
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from specgrad.generators import LaplaceSpec, gen_laplace3d\n"
            "from specgrad.qp_engine import METHODS, StrategySpec, run_many\n"
            "p, _ = gen_laplace3d(LaplaceSpec('B', 33))\n"
            "specs = [StrategySpec(m, h=3, s=2) for m in METHODS]\n"
            "digest = hashlib.sha256()\n"
            "for tr in run_many(p, np.zeros(p.dim), specs, eps=1e-6, max_iter=150):\n"
            "    for a in (tr.f, tr.gnorm, tr.alpha, tr.x_final):\n"
            "        digest.update(a.tobytes())\n"
            "    digest.update(repr((tr.branch, tr.termination)).encode())\n"
            "print(digest.hexdigest())\n"
        )
        one, two = (run_in_subprocess(script, threads) for threads in ("1", "2"))
        assert one == two and len(one.strip()) == 64


def test_converged_rows_meet_the_true_residual():
    # the recurrence gradient stays the true one: ||Ax - b|| / ||g_1|| <= 1.01 eps
    plan = bench.ExperimentPlan.load(str(Path(__file__).resolve().parent.parent / "plans" / "table1.json"))
    p, x1, _ = bench.gen_instance(plan.problems[0], plan.problems[0]["seeds"][0])
    eps = min(plan.tolerances)
    traces = run_many(p, x1, [StrategySpec(**s) for s in plan.strategies], eps=eps, max_iter=plan.iter_cap)
    r1 = np.linalg.norm(p.gradient(x1))
    assert all(tr.termination == "gradient_tol" for tr in traces)
    for tr in traces:
        assert np.linalg.norm(p.gradient(tr.x_final)) / r1 <= 1.01 * eps
