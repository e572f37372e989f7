"""Projected gradient methods for bound-constrained minimization.

``solve_box`` implements a gradient projection method whose trial
stepsize cycles between h "long" iterations using a norm-ratio (or BB)
stepsize and s "short" iterations where that value is capped by a
Hessian-free spectral estimate reconstructed from the two most recent
steps. Steps along the projection arc d = P(x - alpha g) - x are accepted
by an adaptive nonmonotone line search built around a reference value
f_r: a unit step is taken whenever

    f(x + d) <= f_r + sigma g'd,

and otherwise the step length backtracks until

    f(x + lambda d) <= min(f_max, f_r) + sigma lambda g'd,

with f_max the worst objective over the last M accepted iterates. The
reference value is managed by ``update_reference``: an improvement over
the best value resets the scheme, while M consecutive non-improving
steps promote the worst recent candidate to become the new reference.

The SPG variant is the classic spectral projected gradient baseline
(Birgin, Martinez and Raydan, SIAM J. Optim. 10, 2000) run by the same
loop and the same search: it takes the safeguarded BB1 stepsize s's/s'y
instead of the memory-based rules, and pins the reference value to
f_r = f_max after every accepted step, which turns the search into the
max-of-last-M Armijo test.

A run that fails is returned, not raised: its trace ends ``diverged`` on
a nonfinite objective or gradient norm at the start or at an accepted
step, and ``line_search_failed`` when the arc yields no descent direction
or the search runs out of backtracks, with the cause in ``failure``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .problem import BoxBounds, ObjectiveOracle
from .qp_engine import RunTrace, TraceRecorder
from .stepsize import StepsizeMemory, StepsizeUndefinedError, bar_alpha_general, p_stepsize

__all__ = [
    "BOX_VARIANTS",
    "LineSearchState",
    "BoxRunConfig",
    "direction",
    "nonmonotone_search",
    "update_reference",
    "solve_box",
]

BOX_VARIANTS = ("A1", "A1_BB1", "A1_BB2", "SPG")

BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50


@dataclass
class LineSearchState:
    """Adaptive reference-value bookkeeping for the nonmonotone search."""

    f_r: float
    f_best: float
    f_c: float
    L: int
    M: int
    sigma: float
    recent_f: deque = field(repr=False, default=None)

    @staticmethod
    def fresh(f1: float, M: int, sigma: float) -> "LineSearchState":
        state = LineSearchState(f_r=f1, f_best=f1, f_c=f1, L=0, M=M, sigma=sigma)
        state.recent_f = deque([f1], maxlen=M)
        return state

    @property
    def f_max(self) -> float:
        return max(self.recent_f)


def update_reference(ls: LineSearchState, f_new: float) -> LineSearchState:
    """Advance the reference scheme with the newly accepted value.

    Improvement on the best value resets the candidate and counter; after
    M consecutive non-improving steps the candidate (the worst value seen
    since the last improvement) becomes the new reference.
    """
    if f_new < ls.f_best:
        ls.f_best = f_new
        ls.f_c = f_new
        ls.L = 0
    else:
        ls.f_c = max(ls.f_c, f_new)
        ls.L += 1
        if ls.L == ls.M:
            ls.f_r = ls.f_c
            ls.f_c = f_new
            ls.L = 0
    ls.recent_f.append(f_new)
    return ls


def direction(x: np.ndarray, g: np.ndarray, alpha: float, bounds: BoxBounds) -> np.ndarray:
    """Projection-arc direction d = P(x - alpha g) - x."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return bounds.project(x - alpha * g) - x


def nonmonotone_search(
    oracle: ObjectiveOracle,
    x: np.ndarray,
    d: np.ndarray,
    gd: float,
    ls: LineSearchState,
) -> tuple[float, float, bool, np.ndarray] | None:
    """Step length along d, given the slope gd = g'd: unit step against
    f_r, else backtrack against min(f_max, f_r).

    Returns (lambda, f at the accepted point, whether the unit step was
    accepted, the accepted point x + lambda d), or None when no step is
    accepted after ``MAX_BACKTRACKS`` backtracks.
    """
    if gd >= 0.0:
        raise ValueError("not a descent direction: g'd >= 0")
    x_trial = x + d
    f_trial = oracle.f(x_trial)
    if f_trial <= ls.f_r + ls.sigma * gd:
        return 1.0, f_trial, True, x_trial
    bound = min(ls.f_max, ls.f_r)
    lam = 1.0
    for _ in range(MAX_BACKTRACKS):
        lam *= BACKTRACK_FACTOR
        x_trial = x + lam * d
        f_trial = oracle.f(x_trial)
        if f_trial <= bound + ls.sigma * lam * gd:
            return lam, f_trial, False, x_trial
    return None


@dataclass(frozen=True)
class BoxRunConfig:
    """Solver parameters for the bound-constrained runs."""

    alpha_min: float = 1e-30
    alpha_max: float = 1e30
    h: int = 10
    s: int = 4
    M: int = 8
    sigma: float = 1e-4
    eps_pg: float = 1e-6
    max_iter: int = 20000
    variant: str = "A1"

    def __post_init__(self):
        if not 0.0 < self.alpha_min < self.alpha_max:
            raise ValueError("need 0 < alpha_min < alpha_max")
        if self.h < 1 or self.s < 1 or self.M < 1:
            raise ValueError("h, s, M must be positive")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.0 <= self.eps_pg < math.inf:
            raise ValueError("eps_pg must be finite and nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        v = self.variant.upper().replace("-", "_")
        if v not in BOX_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {BOX_VARIANTS}")
        object.__setattr__(self, "variant", v)


def _pg_norm(x: np.ndarray, g: np.ndarray, bounds: BoxBounds) -> float:
    return float(abs(bounds.project(x - g) - x).max()) if x.size else 0.0


def _safeguard(alpha: float, cfg: BoxRunConfig) -> float:
    return max(cfg.alpha_min, min(alpha, cfg.alpha_max))


def _initial_alpha(norm: float, cfg: BoxRunConfig) -> float:
    """Safeguarded 1/norm (1 when the norm vanishes)."""
    return _safeguard(1.0 / norm if norm > 0.0 else 1.0, cfg)


# long-phase trial stepsize of the A1 variants, read from the stepsize memory
_A1_LONG = {
    "A1": lambda mem: p_stepsize(mem),  # looked up per call, so a wrapper on the module name sees it
    "A1_BB1": lambda mem: mem.barbb1_cur,
    "A1_BB2": lambda mem: mem.barbb2_cur,
}


def solve_box(
    oracle: ObjectiveOracle,
    bounds: BoxBounds,
    x1: np.ndarray,
    cfg: BoxRunConfig,
) -> RunTrace:
    """Gradient projection with the adaptive nonmonotone line search.

    The trial stepsize for the next iteration is updated after each
    accepted step. For A1/A1_BB1/A1_BB2, when s'y > 0 the long phase takes
    the variant's stepsize (norm ratio over the masked gradient difference
    for A1, the masked BB pair for A1_BB1/A1_BB2) and the short phase caps
    it with the reconstructed spectral estimate when that estimate is
    positive, falling back to the short BB stepsize otherwise; when
    s'y <= 0 the next stepsize is 1/||g||. SPG takes the safeguarded BB1
    stepsize s's/s'y, or alpha_max when s'y <= 0, and searches with
    f_r = f_max. Stops when the projected gradient sup-norm reaches
    cfg.eps_pg.

    A failed run is returned as its trace up to the last accepted iterate
    (``x_final``), with the cause in ``failure``: ``diverged`` on a
    nonfinite objective or gradient norm at the start or at an accepted
    step, ``line_search_failed`` when the arc yields no descent direction
    or no step is accepted after ``MAX_BACKTRACKS`` backtracks. The
    evaluation counts include the failed search.
    """
    spg = cfg.variant == "SPG"
    x = bounds.project(np.asarray(x1, dtype=np.float64))
    g = oracle.grad(x)
    fx = oracle.f(x)
    gnorm = math.sqrt(g.dot(g))
    pg = _pg_norm(x, g, bounds)
    trace = TraceRecorder(fx, gnorm, cfg.eps_pg, cfg.max_iter, pg=pg)
    records: list[dict] = []

    def finish(termination: str | None = None, failure: str | None = None) -> RunTrace:
        return trace.result(
            x,
            termination,
            func_evals=oracle.eval_count,
            grad_evals=oracle.grad_count,
            ls_records=records,
            failure=failure,
        )

    if not math.isfinite(fx):
        return finish("diverged", "nonfinite objective at the starting point")
    if not math.isfinite(gnorm):
        return finish("diverged", "nonfinite gradient norm at the starting point")
    ls = LineSearchState.fresh(fx, M=cfg.M, sigma=cfg.sigma)
    mem = StepsizeMemory()
    mem.start(g)
    alpha = _initial_alpha(pg if spg else gnorm, cfg)

    k = 1
    while not trace.stop(pg):
        d = direction(x, g, alpha, bounds)
        gd = float(g.dot(d))
        if gd >= 0.0 and not spg:
            # alpha so small the arc collapsed numerically; retry once at 1/||g||
            alpha = _initial_alpha(gnorm, cfg)
            d = direction(x, g, alpha, bounds)
            gd = float(g.dot(d))
        if gd >= 0.0:
            return finish("line_search_failed", "projection arc yields no descent direction")

        step = nonmonotone_search(oracle, x, d, gd, ls)
        if step is None:
            return finish("line_search_failed", f"no acceptable step after {MAX_BACKTRACKS} backtracks")
        lam, f_new, unit, x_new = step
        if not math.isfinite(f_new):
            return finish("diverged", f"nonfinite objective at iteration {k}")

        g_new = oracle.grad(x_new)
        s = x_new - x
        if spg:
            gnorm = math.sqrt(g_new.dot(g_new))
        else:
            mem.push(g_new, s, alpha_used=alpha)
            gnorm = mem.gnorm_cur
        if not math.isfinite(gnorm):
            return finish("diverged", f"nonfinite gradient norm at iteration {k}")
        rec = {"k": k, "alpha": alpha, "gd": gd, "f_r": ls.f_r, "f_max": ls.f_max, "sigma": ls.sigma,
               "lam": lam, "f_new": f_new, "unit": unit}
        records.append(rec)
        if spg:
            sty = float(s.dot(g_new - g))
            if sty > 0.0:
                alpha, label = _safeguard(float(s.dot(s)) / sty, cfg), "bb"
            else:
                alpha, label = cfg.alpha_max, "sy_nonpos"
        else:
            sty = float(s.dot(mem.y_prev))
            short = k % (cfg.h + cfg.s) >= cfg.h
            spectral = None
            if sty > 0.0 and short:
                try:
                    spectral = bar_alpha_general(mem)
                except StepsizeUndefinedError:
                    pass
            rec["spectral"] = spectral
            if sty > 0.0:
                long_next = _A1_LONG[cfg.variant](mem)
                if not short:
                    tilde, label = long_next, "long"
                elif spectral is not None and math.isfinite(spectral) and spectral > 0.0:
                    tilde, label = min(spectral, long_next), "short_min"
                else:
                    tilde, label = mem.barbb2_cur, "short_bb2"
                alpha = _safeguard(tilde, cfg)
            else:
                alpha, label = (1.0 / gnorm if gnorm > 0.0 else 1.0), "sy_nonpos"

        update_reference(ls, f_new)
        if spg:
            ls.f_r = ls.f_max
        x, g = x_new, g_new
        pg = _pg_norm(x, g, bounds)
        trace.add(rec["alpha"], label, f_new, gnorm, pg)
        k += 1

    return finish()
