import numpy as np
from specgrad.suite import make_suite, rosenbrock_fg, trigonometric_fg

from reference import contains


def central_difference(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestSuiteRoster:
    def test_twelve_named_problems(self):
        suite = make_suite()
        assert len(suite) == 12
        names = [e.name for e in suite]
        assert len(set(names)) == 12
        assert "rosenbrock-100" in names and "trigonometric-10" in names

    def test_feasible_starts(self):
        for e in make_suite():
            assert contains(e.bounds, e.x1)

    def test_fresh_oracles(self):
        e = make_suite()[0]
        o1 = e.oracle_factory()
        o1.f(e.x1)
        assert e.oracle_factory().eval_count == 0

    def test_deterministic_roster(self):
        a, b = make_suite(), make_suite()
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.x1, eb.x1)
            np.testing.assert_array_equal(ea.bounds.lower, eb.bounds.lower)
            assert ea.oracle_factory().f(ea.x1) == eb.oracle_factory().f(eb.x1)


class TestGradients:
    def test_rosenbrock_gradient_matches_differences(self):
        f, g = rosenbrock_fg(8)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 8)
            fd = central_difference(f, x)
            assert np.allclose(g(x), fd, rtol=1e-5, atol=1e-4)

    def test_rosenbrock_minimum(self):
        f, g = rosenbrock_fg(10)
        ones = np.ones(10)
        assert f(ones) == 0.0
        assert np.linalg.norm(g(ones)) == 0.0

    def test_trigonometric_gradient_matches_differences(self):
        f, g = trigonometric_fg(6)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 6)
            fd = central_difference(f, x)
            assert np.allclose(g(x), fd, rtol=1e-5, atol=1e-5)

    def test_suite_oracles_match_differences_at_start(self):
        for e in make_suite():
            oracle = e.oracle_factory()
            x = e.x1
            fd = central_difference(oracle._f, x)
            g = oracle.grad(x)
            scale = max(np.linalg.norm(g), 1.0)
            assert np.linalg.norm(g - fd) <= 1e-5 * scale, e.name
