import math

import numpy as np
import pytest

from specgrad.generators import SpectrumSpec, gen_diag_problem
from specgrad.problem import QuadraticProblem
from specgrad.qp_engine import StrategySpec, run
from specgrad.stepsize import (
    StepsizeMemory,
    StepsizeUndefinedError,
    bar_alpha_direct,
    bar_alpha_general,
    hat_alpha_direct,
    modified_y,
    p_stepsize,
    yuan_stepsize,
)

from reference import aopt_stepsize, bb_pair, sd_stepsize


def mem_from(s, y, alpha=1.0):
    """Warm memory holding one (s, y) record (gradients synthesized)."""
    mem = StepsizeMemory()
    g0 = np.zeros_like(np.asarray(y, dtype=float))
    mem.start(g0)
    mem.push(g0 + np.asarray(y, dtype=float), np.asarray(s, dtype=float), alpha_used=alpha)
    return mem


class TestSd:
    def test_identity(self):
        p = QuadraticProblem(np.ones(2))
        assert sd_stepsize(np.array([3.0, 4.0]), p) == 1.0

    def test_eigenvector(self):
        p = QuadraticProblem(np.array([2.0]))
        assert sd_stepsize(np.array([5.0]), p) == 0.5

    def test_hand_value(self):
        p = QuadraticProblem(np.array([1.0, 2.0]))
        assert sd_stepsize(np.array([1.0, 1.0]), p) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_zero_gradient(self):
        p = QuadraticProblem(np.ones(2))
        with pytest.raises(StepsizeUndefinedError):
            sd_stepsize(np.zeros(2), p)

    def test_range(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1.0, 50.0, 30)
        p = QuadraticProblem(d)
        for _ in range(100):
            g = rng.standard_normal(30)
            a = sd_stepsize(g, p)
            assert 1.0 / d.max() - 1e-12 <= a <= 1.0 / d.min() + 1e-12


class TestAopt:
    def test_identity(self):
        p = QuadraticProblem(np.ones(4))
        assert aopt_stepsize(np.array([1.0, -2.0, 0.5, 3.0]), p) == pytest.approx(1.0, rel=1e-15)

    def test_eigenvector(self):
        p = QuadraticProblem(np.array([1.0, 4.0]))
        assert aopt_stepsize(np.array([0.0, 2.0]), p) == pytest.approx(0.25, rel=1e-15)

    def test_hand_value(self):
        p = QuadraticProblem(np.array([1.0, 2.0]))
        assert aopt_stepsize(np.array([1.0, 1.0]), p) == pytest.approx(math.sqrt(2.0 / 5.0), rel=1e-12)

    def test_zero_gradient(self):
        p = QuadraticProblem(np.ones(2))
        with pytest.raises(StepsizeUndefinedError):
            aopt_stepsize(np.zeros(2), p)

    def test_at_most_sd(self):
        rng = np.random.default_rng(1)
        p = QuadraticProblem(rng.uniform(0.5, 20.0, 25))
        for _ in range(200):
            g = rng.standard_normal(25)
            assert aopt_stepsize(g, p) <= sd_stepsize(g, p) * (1 + 1e-12)


class TestBB:
    def test_equal_vectors(self):
        assert bb_pair(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == (1.0, 1.0)

    def test_hand_values(self):
        bb1, bb2 = bb_pair(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        assert bb1 == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert bb2 == pytest.approx(3.0 / 5.0, rel=1e-15)

    def test_quadratic_track_bb1_is_previous_sd(self):
        rng = np.random.default_rng(2)
        p = QuadraticProblem(rng.uniform(1.0, 10.0, 15))
        g = rng.standard_normal(15)
        alpha = 0.05
        s = -alpha * g
        y = -alpha * p.apply(g)
        bb1, bb2 = bb_pair(s, y)
        assert bb1 == pytest.approx(sd_stepsize(g, p), rel=1e-12)
        w = p.apply(g)
        assert bb2 == pytest.approx(float(g @ w) / float(w @ w), rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(StepsizeUndefinedError):
            bb_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))  # s'y == 0
        with pytest.raises(StepsizeUndefinedError):
            bb_pair(np.array([1.0, 0.0]), np.array([0.0, 0.0]))  # y == 0
        assert StepsizeMemory().barbb1_cur is None  # cold: no pair recorded

    def test_cauchy_schwarz_order(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s, y = rng.standard_normal((2, 10))
            if float(s @ y) <= 0.0:
                continue
            bb1, bb2 = bb_pair(s, y)
            assert 0.0 < bb2 <= bb1 * (1 + 1e-12)


class TestYuan:
    def test_degenerate_limit(self):
        assert yuan_stepsize(1.0, 1.0, 1.0, 1e-200) == pytest.approx(1.0, rel=1e-12)

    def test_finite_termination_2d(self):
        # two exact line-search steps, one two-point step, one more exact step
        p = QuadraticProblem(np.array([1.0, 10.0]))
        x = np.array([10.0, 1.0])
        g = p.gradient(x)
        sds, gns = [], []
        for _ in range(2):
            a = sd_stepsize(g, p)
            sds.append(a)
            gns.append(float(np.linalg.norm(g)))
            x = x - a * g
            g = p.gradient(x)
        sds.append(sd_stepsize(g, p))
        gns.append(float(np.linalg.norm(g)))
        ay = yuan_stepsize(sds[-2], sds[-1], gns[-2], gns[-1])
        x = x - ay * g
        g = p.gradient(x)
        x = x - sd_stepsize(g, p) * g
        assert np.linalg.norm(p.gradient(x)) < 1e-10

    def test_upper_bound_on_sd_track(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            p = gen_diag_problem(SpectrumSpec("TP1", 30, 30.0, seed))
            x = rng.standard_normal(30)
            g = p.gradient(x)
            sd_prev, gn_prev = None, None
            for _ in range(40):
                sd = sd_stepsize(g, p)
                gn = float(np.linalg.norm(g))
                if sd_prev is not None:
                    ay = yuan_stepsize(sd_prev, sd, gn_prev, gn)
                    assert ay <= min(sd_prev, sd) * (1 + 1e-12)
                x = x - sd * g
                g = p.gradient(x)
                sd_prev, gn_prev = sd, gn

    def test_positivity_required(self):
        with pytest.raises(StepsizeUndefinedError):
            yuan_stepsize(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(StepsizeUndefinedError):
            yuan_stepsize(1.0, 1.0, 0.0, 1.0)


class TestSpectralQuotients:
    def test_bar_hand_value(self):
        p = QuadraticProblem(np.array([1.0, 2.0]))
        v = bar_alpha_direct(np.array([1.0, 0.0]), np.array([0.0, 1.0]), p)
        assert v == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_bar_antiparallel_identity(self):
        p = QuadraticProblem(np.ones(3))
        g = np.array([1.0, 2.0, -1.0])
        assert bar_alpha_direct(g, -g, p) == pytest.approx(1.0, rel=1e-14)

    def test_bar_degenerate_parallel(self):
        p = QuadraticProblem(np.ones(2))
        g = np.array([1.0, 1.0])
        with pytest.raises(StepsizeUndefinedError):
            bar_alpha_direct(g, 2.0 * g, p)

    def test_bar_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        p = QuadraticProblem(rng.uniform(1.0, 5.0, 10))
        g1, g2 = rng.standard_normal((2, 10))
        base = bar_alpha_direct(g1, g2, p)
        scaled = bar_alpha_direct(3.7 * g1, 0.002 * g2, p)
        assert scaled == pytest.approx(base, rel=1e-14)

    def test_bar_within_spectrum(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(1.0, 100.0, 20)
        p = QuadraticProblem(d)
        for _ in range(100):
            g1, g2 = rng.standard_normal((2, 20))
            v = bar_alpha_direct(g1, g2, p)
            assert 1.0 / d.max() - 1e-12 <= v <= 1.0 / d.min() + 1e-12

    def test_hat_eigenvector(self):
        p = QuadraticProblem(np.array([1.0, 4.0]))
        g = np.array([0.0, 3.0])
        assert hat_alpha_direct(g, g, p) == pytest.approx(0.25, rel=1e-14)

    def test_hat_hand_value(self):
        p = QuadraticProblem(np.array([1.0, 2.0]))
        v = hat_alpha_direct(np.array([1.0, 0.0]), np.array([0.0, 1.0]), p)
        assert v == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_hat_degenerate_antiparallel(self):
        p = QuadraticProblem(np.ones(2))
        g = np.array([1.0, -2.0])
        with pytest.raises(StepsizeUndefinedError):
            hat_alpha_direct(g, -g, p)


class TestModifiedY:
    def test_no_zeros_passthrough(self):
        s = np.array([1.0, -2.0])
        y = np.array([5.0, 3.0])
        np.testing.assert_array_equal(modified_y(s, y), y)

    def test_masking(self):
        np.testing.assert_array_equal(modified_y(np.array([0.0, 1.0]), np.array([5.0, 3.0])), [0.0, 3.0])

    def test_all_zero(self):
        np.testing.assert_array_equal(modified_y(np.zeros(3), np.arange(3.0)), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            modified_y(np.zeros(2), np.zeros(3))


class TestBarBB:
    # the masked pair the box solver reads from its memory, against bb_pair

    def test_unmasked_equals_plain(self):
        s = np.array([1.0, 1.0])
        y = np.array([1.0, 2.0])
        mem = mem_from(s, y)
        assert (mem.barbb1_cur, mem.barbb2_cur) == bb_pair(s, y)

    def test_masked_bb1_unchanged(self):
        s = np.array([0.0, 1.0])
        y = np.array([5.0, 3.0])
        bb1m = mem_from(s, y).barbb1_cur
        bb1, bb2 = bb_pair(s, y)
        assert bb1m == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert bb1 == pytest.approx(bb1m, rel=1e-15)

    def test_masked_bb2_changes(self):
        s = np.array([0.0, 1.0])
        y = np.array([5.0, 3.0])
        bb2m = mem_from(s, y).barbb2_cur
        _, bb2 = bb_pair(s, y)
        assert bb2m == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert bb2 == pytest.approx(3.0 / 34.0, rel=1e-15)

    def test_zero_mask_degenerate(self):
        mem = mem_from(np.zeros(2), np.zeros(2))
        assert mem.barbb1_cur is None and mem.barbb2_cur is None


class TestPStepsize:
    def test_equal_vectors(self):
        assert p_stepsize(mem_from([1.0, 1.0], [1.0, 1.0])) == 1.0

    def test_geometric_mean(self):
        mem = mem_from([1.0, 1.0], [1.0, 2.0])
        v = p_stepsize(mem)
        bb1, bb2 = bb_pair(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        assert v == pytest.approx(math.sqrt(2.0 / 5.0), rel=1e-14)
        assert v == pytest.approx(math.sqrt(bb1 * bb2), rel=1e-14)

    def test_quadratic_track_equals_previous_aopt(self):
        rng = np.random.default_rng(7)
        p = QuadraticProblem(rng.uniform(1.0, 10.0, 12))
        g = rng.standard_normal(12)
        alpha = 0.11
        mem = mem_from(-alpha * g, -alpha * p.apply(g), alpha)
        assert p_stepsize(mem) == pytest.approx(aopt_stepsize(g, p), rel=1e-12)

    def test_modified_variant(self):
        s = np.array([0.0, 1.0])
        y = np.array([5.0, 3.0])
        mem = mem_from(s, y)
        assert p_stepsize(mem) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_cold(self):
        with pytest.raises(StepsizeUndefinedError):
            p_stepsize(StepsizeMemory())

    def test_masked_ordering_chain(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 500:
            s, y = rng.standard_normal((2, 12))
            s[rng.random(12) < 0.3] = 0.0  # bound-locked coordinates
            ybar = modified_y(s, y)
            if float(s @ ybar) <= 0.0:
                continue
            checked += 1
            bb1m, bb2m = bb_pair(s, ybar)
            mem = mem_from(s, y)
            pm = p_stepsize(mem)
            assert bb2m <= pm * (1 + 1e-12)
            assert pm <= bb1m * (1 + 1e-12)


class TestMemory:
    def test_rolling_fields(self):
        mem = StepsizeMemory()
        g1 = np.array([1.0, 2.0])
        g2 = np.array([0.5, -1.0])
        g3 = np.array([0.1, 0.2])
        mem.start(g1)
        assert not mem.warm
        mem.push(g2, np.array([-0.1, -0.2]), alpha_used=0.1)
        assert mem.warm and not mem.retard_ready
        np.testing.assert_array_equal(mem.y_prev, g2 - g1)
        assert mem.gnorm_prev == pytest.approx(np.linalg.norm(g1), rel=1e-14)
        assert mem.gnorm_cur == pytest.approx(np.linalg.norm(g2), rel=1e-14)
        mem.push(g3, np.array([0.2, 0.1]), alpha_used=0.2)
        assert mem.retard_ready
        assert mem.alpha_prev2 == 0.1 and mem.alpha_prev == 0.2
        assert mem.gnorm_prev2 == pytest.approx(np.linalg.norm(g1), rel=1e-14)

    def test_cold_rejects_retarded_query(self):
        mem = StepsizeMemory()
        mem.start(np.array([1.0, 0.0]))
        with pytest.raises(StepsizeUndefinedError):
            bar_alpha_general(mem)
        mem.push(np.array([0.5, 0.1]), np.array([-0.1, 0.0]), alpha_used=0.1)
        with pytest.raises(StepsizeUndefinedError):
            bar_alpha_general(mem)


class TestBarAlphaGeneral:
    def test_keystone_equivalence_on_quadratic_track(self):
        # reconstruct the memory from a norm-quotient trajectory and compare
        # against the direct quotient one step back
        for seed in range(1, 4):
            p = gen_diag_problem(SpectrumSpec("TP1", 100, 100.0, seed))
            tr = run(p, np.ones(100), StrategySpec("AOPT"), eps=1e-14, max_iter=30,
                     retain_gradients=True)
            g = tr.gradients
            al = tr.alpha
            mem = StepsizeMemory()
            mem.start(g[0])
            for i in range(1, len(g)):
                mem.push(g[i], -al[i - 1] * g[i - 1], alpha_used=al[i - 1])
                if i + 1 >= 3:
                    general = bar_alpha_general(mem)
                    direct = bar_alpha_direct(g[i - 2], g[i - 1], p)
                    assert general == pytest.approx(direct, rel=1e-8)

    def test_zero_denominator(self):
        mem = StepsizeMemory()
        g = np.array([1.0, 0.0])
        mem.start(g)
        mem.push(np.array([0.0, 1.0]), np.array([-0.5, 0.0]), alpha_used=0.5)
        mem.push(np.array([1.0, 1.0]), np.array([0.0, -0.5]), alpha_used=0.5)
        # force a vanishing denominator by zeroing the stored pair data
        mem.barbb1_prev = 1.0
        mem.barbb2_prev = 1.0
        mem.barbb1_cur = -1.0
        mem.alpha_prev2 = 1.0
        mem.gnorm_prev2 = 0.0  # numerator ratio 0; denominator 1/1 + 1/(-1) = 0
        with pytest.raises(StepsizeUndefinedError):
            bar_alpha_general(mem)

    def test_purity(self):
        mem = mem_from([1.0, 2.0], [0.5, 1.0])
        mem.push(np.array([0.2, -0.3]), np.array([0.05, 0.1]), alpha_used=0.3)
        a = bar_alpha_general(mem)
        b = bar_alpha_general(mem)
        assert a == b
