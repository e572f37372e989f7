"""Stepsize formulas for gradient methods, as pure functions of a rolling memory.

Every rule here is a pure function: identical inputs give identical
outputs, and degenerate inputs raise ``StepsizeUndefinedError`` instead of
silently substituting a fallback. Policy (what to do when a rule is
undefined or negative) belongs to the solver engines, not to this module.

Denominator checks compare against exact 0.0 on purpose: the engines
already branch on the sign of the returned value, and an epsilon here
would silently change method behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import QuadraticProblem, dot

__all__ = [
    "StepsizeUndefinedError",
    "StepsizeMemory",
    "yuan_stepsize",
    "bar_alpha_direct",
    "hat_alpha_direct",
    "modified_y",
    "p_stepsize",
    "bar_alpha_general",
]


class StepsizeUndefinedError(ValueError):
    """A stepsize rule was queried with degenerate or insufficient data."""


@dataclass
class StepsizeMemory:
    """Rolling per-run state feeding the memory-based stepsize rules.

    ``push`` advances the memory by one iterate. With the newest gradient
    g_k stored in ``g_cur``, the fields hold: the previous gradient, the
    gradient difference y_{k-1}, the squared norms s's and ybar'ybar of
    the step s_{k-1} and of the masked difference ybar_{k-1}, the last two
    stepsizes actually taken, gradient norms at k, k-1, k-2, and the
    masked-difference BB pair for the two most recent (s, y) records. A
    memory instance belongs to exactly one solver run.
    """

    g_prev: np.ndarray | None = None
    g_cur: np.ndarray | None = None
    y_prev: np.ndarray | None = None
    ss_prev: float | None = None
    ybar_sq_prev: float | None = None
    alpha_prev: float | None = None
    alpha_prev2: float | None = None
    gnorm_cur: float | None = None
    gnorm_prev: float | None = None
    gnorm_prev2: float | None = None
    barbb1_cur: float | None = field(default=None, repr=False)
    barbb2_cur: float | None = field(default=None, repr=False)
    barbb1_prev: float | None = field(default=None, repr=False)
    barbb2_prev: float | None = field(default=None, repr=False)

    @property
    def warm(self) -> bool:
        """Two iterates seen: s/y differences exist."""
        return self.g_prev is not None

    @property
    def retard_ready(self) -> bool:
        """Enough history for the retarded general rule (three iterates)."""
        return (
            self.gnorm_prev2 is not None
            and self.alpha_prev2 is not None
            and self.barbb1_prev is not None
        )

    def start(self, g1: np.ndarray) -> None:
        """Record the first gradient; memory stays cold until the next push."""
        self.g_cur = np.asarray(g1, dtype=np.float64)
        self.gnorm_cur = math.sqrt(dot(self.g_cur, self.g_cur))

    def push(self, g_new: np.ndarray, s_new: np.ndarray, alpha_used: float) -> None:
        """Advance by one iterate: shift the window and ingest g_k, s_{k-1}.

        ``alpha_used`` is the stepsize that produced s_new.
        """
        if self.g_cur is None:
            raise StepsizeUndefinedError("push before start: no initial gradient")
        g_new = np.asarray(g_new, dtype=np.float64)
        s_new = np.asarray(s_new, dtype=np.float64)

        self.g_prev = self.g_cur
        self.gnorm_prev2 = self.gnorm_prev
        self.gnorm_prev = self.gnorm_cur
        self.alpha_prev2 = self.alpha_prev
        self.alpha_prev = float(alpha_used)
        self.barbb1_prev = self.barbb1_cur
        self.barbb2_prev = self.barbb2_cur

        self.g_cur = g_new
        self.gnorm_cur = math.sqrt(dot(g_new, g_new))
        self.y_prev = g_new - self.g_prev
        ybar = modified_y(s_new, self.y_prev)

        sty = dot(s_new, ybar)
        self.ss_prev = dot(s_new, s_new)
        self.ybar_sq_prev = yty = dot(ybar, ybar)
        self.barbb1_cur = self.ss_prev / sty if sty != 0.0 else None
        self.barbb2_cur = sty / yty if yty != 0.0 else None


def yuan_stepsize(sd_prev: float, sd_cur: float, gnorm_prev: float, gnorm_cur: float) -> float:
    """Two-point stepsize forcing finite termination on 2-D quadratics.

    All arguments must be strictly positive: the two most recent Cauchy
    stepsizes and gradient norms.
    """
    if min(sd_prev, sd_cur, gnorm_prev, gnorm_cur) <= 0.0:
        raise StepsizeUndefinedError("yuan_stepsize needs strictly positive inputs")
    a = 1.0 / sd_prev
    c = 1.0 / sd_cur
    root = math.sqrt((a - c) ** 2 + 4.0 * gnorm_cur**2 / (sd_prev * gnorm_prev) ** 2)
    return 2.0 / (root + a + c)


def _quotient_over(g_prev: np.ndarray, g_cur: np.ndarray, p: QuadraticProblem, combine) -> float:
    """d'd / d'Ad for d = combine(g_prev/||g_prev||, g_cur/||g_cur||)."""
    n_prev, n_cur = math.sqrt(dot(g_prev, g_prev)), math.sqrt(dot(g_cur, g_cur))
    if n_prev == 0.0 or n_cur == 0.0:
        raise StepsizeUndefinedError("zero gradient")
    d = combine(g_prev / n_prev, g_cur / n_cur)
    dd = dot(d, d)
    if dd == 0.0:
        raise StepsizeUndefinedError("degenerate direction: normalized gradients cancel")
    dAd = dot(d, p.apply(d))
    if dAd == 0.0:
        raise StepsizeUndefinedError("degenerate curvature: d'Ad = 0")
    return dd / dAd


def bar_alpha_direct(g_prev: np.ndarray, g_cur: np.ndarray, p: QuadraticProblem) -> float:
    """Rayleigh quotient of the normalized-gradient difference.

    d = g_prev/||g_prev|| - g_cur/||g_cur||; returns d'd / d'Ad, which
    lies in [1/lambda_max, 1/lambda_min] for SPD A and tracks the inverse
    of the largest eigenvalue along norm-quotient trajectories.
    """
    return _quotient_over(g_prev, g_cur, p, np.subtract)


def hat_alpha_direct(g_prev: np.ndarray, g_cur: np.ndarray, p: QuadraticProblem) -> float:
    """Companion quotient over the normalized-gradient sum (diagnostic only)."""
    return _quotient_over(g_prev, g_cur, p, np.add)


def modified_y(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient difference masked to the coordinates that actually moved."""
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError("s and y must have equal length")
    return np.where(s == 0.0, 0.0, y)


def p_stepsize(mem: StepsizeMemory) -> float:
    """Norm-ratio stepsize ||s||/||ybar||, the geometric mean of the masked BB pair.

    The masked difference ybar replaces y, so that bound-locked
    coordinates do not pollute the curvature estimate; with no coordinate
    locked, ybar = y and this is ||s||/||y||.
    """
    if not mem.warm:
        raise StepsizeUndefinedError("memory cold: no step recorded")
    if mem.ybar_sq_prev == 0.0:
        raise StepsizeUndefinedError("zero gradient difference")
    return math.sqrt(mem.ss_prev) / math.sqrt(mem.ybar_sq_prev)


def bar_alpha_general(mem: StepsizeMemory) -> float:
    """Hessian-free reconstruction of the spectral quotient, one step retarded.

    Evaluates the rational expression that reproduces
    ``bar_alpha_direct(g_{k-2}, g_{k-1}, A)`` on exact quadratic
    trajectories, using only stored norms, stepsizes, and the masked BB
    pairs. For general nonlinear data the value may be negative or
    ill-conditioned; callers must branch on its sign.
    """
    if not mem.retard_ready:
        raise StepsizeUndefinedError("memory cold: retarded rule needs three iterates")
    if mem.barbb1_cur is None or mem.barbb2_prev is None:
        raise StepsizeUndefinedError("undefined: BB pair unavailable")
    b1p = mem.barbb1_prev
    b2p = mem.barbb2_prev
    b1c = mem.barbb1_cur
    if b1p == 0.0 or b2p == 0.0 or b1c == 0.0 or mem.gnorm_prev == 0.0:
        raise StepsizeUndefinedError("undefined: zero denominator")
    ratio = mem.gnorm_prev2 / mem.gnorm_prev
    num = 2.0 - 2.0 * ratio * (b1p - mem.alpha_prev2) / b1p
    den = 1.0 / b1p + 1.0 / b1c - 2.0 * ratio * (b2p - mem.alpha_prev2) / (b1p * b2p)
    if den == 0.0:
        raise StepsizeUndefinedError("undefined: zero denominator")
    return num / den
