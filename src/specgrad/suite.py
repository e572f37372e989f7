"""Synthetic bound-constrained test suite.

Twelve problems with fixed, documented seeds: ten box-constrained convex
quadratics built from the seeded spectrum generators (with interior,
fully active, one-sided, and mixed-activity boxes), the generalized
Rosenbrock function, and the nonconvex trigonometric sum-of-squares test.
Each entry hands out a fresh counting oracle per solver run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .generators import SpectrumSpec, gen_diag_problem, gen_rotated_problem
from .problem import BoxBounds, ObjectiveOracle, QuadraticProblem

__all__ = [
    "BoundedProblem",
    "rosenbrock_fg",
    "trigonometric_fg",
    "make_suite",
]


@dataclass(frozen=True)
class BoundedProblem:
    """One suite entry: named objective, box, and starting point."""

    name: str
    oracle_factory: Callable[[], ObjectiveOracle]
    bounds: BoxBounds
    x1: np.ndarray


def rosenbrock_fg(n: int):
    """Generalized Rosenbrock objective and gradient (chained 2-D valleys)."""

    def f(x):
        head = x[:-1]
        return float((100.0 * (x[1:] - head * head) ** 2 + (1.0 - head) ** 2).sum())

    def grad(x):
        g = np.zeros(x.shape)
        head = x[:-1]
        t = x[1:] - head * head
        g[:-1] = -400.0 * head * t - 2.0 * (1.0 - head)
        g[1:] += 200.0 * t
        return g

    return f, grad


def trigonometric_fg(n: int):
    """Nonconvex trigonometric test: sum of squares of the residuals
    r_i = n - sum_j cos x_j + i (1 - cos x_i) - sin x_i."""

    idx = np.arange(1, n + 1, dtype=np.float64)

    def residuals(x):
        cos, sin = np.cos(x), np.sin(x)
        return n - cos.sum() + idx * (1.0 - cos) - sin, cos, sin

    def f(x):
        r = residuals(x)[0]
        return float(r.dot(r))

    def grad(x):
        r, cos, sin = residuals(x)
        return 2.0 * (sin * r.sum() + r * (idx * sin - cos))

    return f, grad


def _qp_entry(
    name: str,
    problem: QuadraticProblem,
    bounds: BoxBounds,
) -> BoundedProblem:
    x1 = bounds.project(np.ones(problem.dim))
    return BoundedProblem(name, problem.as_oracle, bounds, x1)


def _interior_box(xs: np.ndarray) -> BoxBounds:
    return BoxBounds(xs - 1.0, xs + 1.0)


def _active_box(xs: np.ndarray) -> BoxBounds:
    # upper bound cut below the unconstrained minimizer: all bounds active
    return BoxBounds(xs - 4.5, xs - 0.5)


def _mixed_box(xs: np.ndarray) -> BoxBounds:
    upper = xs + 1.0
    upper[::2] = xs[::2] - 0.5
    return BoxBounds(xs - 5.0, upper)


def make_suite() -> list[BoundedProblem]:
    """The 12 fixed suite problems (seeds 101..110 for the quadratics)."""
    entries: list[BoundedProblem] = []

    diag_specs = [
        ("boxqp-set1-interior", "SET1", 60, 1e3, 101, _interior_box),
        ("boxqp-set2-active", "SET2", 60, 1e3, 102, _active_box),
        ("boxqp-set3-mixed", "SET3", 60, 1e4, 103, _mixed_box),
        ("boxqp-set4-interior", "SET4", 60, 1e4, 104, _interior_box),
        ("boxqp-set5-mixed", "SET5", 60, 1e3, 105, _mixed_box),
        ("boxqp-set2-active-200", "SET2", 200, 1e4, 108, _active_box),
        ("boxqp-set4-interior-200", "SET4", 200, 1e5, 109, _interior_box),
    ]
    for name, family, n, kappa, seed, boxer in diag_specs:
        p = gen_diag_problem(SpectrumSpec(family, n, kappa, seed))
        entries.append(_qp_entry(name, p, boxer(p.solution())))

    p = gen_rotated_problem(SpectrumSpec("SET1", 60, 1e3, 106))
    entries.append(_qp_entry("boxqp-set1-rot-interior", p, _interior_box(p.solution())))

    p = gen_rotated_problem(SpectrumSpec("SET3", 60, 1e3, 107))
    entries.append(_qp_entry("boxqp-set3-rot-unitbox", p, BoxBounds(-np.ones(60), np.ones(60))))

    p = gen_rotated_problem(SpectrumSpec("SET5", 100, 1e4, 110))
    entries.append(
        _qp_entry("boxqp-set5-rot-nonneg", p, BoxBounds(np.zeros(100), np.full(100, np.inf)))
    )

    n = 100
    f, g = rosenbrock_fg(n)
    x1 = np.ones(n)
    x1[::2] = -1.2
    entries.append(
        BoundedProblem(
            "rosenbrock-100",
            lambda f=f, g=g: ObjectiveOracle(f, g),
            BoxBounds(np.full(n, -2.0), np.full(n, 2.0)),
            x1,
        )
    )

    n = 10
    f, g = trigonometric_fg(n)
    entries.append(
        BoundedProblem(
            "trigonometric-10",
            lambda f=f, g=g: ObjectiveOracle(f, g),
            BoxBounds(np.full(n, -np.pi), np.full(n, np.pi)),
            np.full(n, 1.0 / n),
        )
    )

    return entries
