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

Each variant is one row of the table ``_VARIANTS``; ``solve_box`` reads
the row and names no variant, so a new variant is one more row; the A1
variants' (h, s) = (10, 4) schedule is its ``cycle`` column. SPG is the
classic spectral projected gradient baseline (Birgin, Martinez and
Raydan, SIAM J. Optim. 10, 2000): it takes the safeguarded BB1 stepsize
s's/s'y, keeps no stepsize memory and pins the reference value to
f_r = f_max, which turns the search into the max-of-last-M Armijo test.
Every variant takes sigma = ``SIGMA`` and clamps its trial stepsizes into
[``ALPHA_MIN``, ``ALPHA_MAX``]; a plan sets only the variant and M.

A run that fails is returned, not raised: its trace ends ``diverged`` on
a nonfinite objective or gradient norm at the start or at an accepted
step, and ``line_search_failed`` when the arc yields no descent direction
or the search runs out of backtracks, with the cause in ``failure``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .problem import BoxBounds, ObjectiveOracle, check_field_types, dot
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

BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50
SIGMA = 1e-4
ALPHA_MIN, ALPHA_MAX = 1e-30, 1e30  # the safeguards of every trial stepsize


@dataclass
class LineSearchState:
    """Adaptive reference-value bookkeeping for the nonmonotone search."""

    f_r: float
    f_best: float
    f_c: float
    L: int
    M: int
    recent_f: deque = field(repr=False, default=None)

    @staticmethod
    def fresh(f1: float, M: int) -> "LineSearchState":
        state = LineSearchState(f_r=f1, f_best=f1, f_c=f1, L=0, M=M)
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
    if f_trial <= ls.f_r + SIGMA * gd:
        return 1.0, f_trial, True, x_trial
    bound = min(ls.f_max, ls.f_r)
    lam = 1.0
    for _ in range(MAX_BACKTRACKS):
        lam *= BACKTRACK_FACTOR
        x_trial = x + lam * d
        f_trial = oracle.f(x_trial)
        if f_trial <= bound + SIGMA * lam * gd:
            return lam, f_trial, False, x_trial
    return None


@dataclass(frozen=True)
class BoxRunConfig:
    """What a plan varies between bound-constrained runs: the variant (a
    key of ``_VARIANTS``), the memory M of the nonmonotone search, the
    projected-gradient tolerance and the step cap."""

    variant: str = "A1"
    M: int = 8
    eps_pg: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        check_field_types(self)
        if self.M < 1:
            raise ValueError("M must be positive")
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


def _safeguard(alpha: float) -> float:
    return max(ALPHA_MIN, min(alpha, ALPHA_MAX))


def _initial_alpha(norm: float) -> float:
    """Safeguarded 1/norm (1 when the norm vanishes)."""
    return _safeguard(1.0 / norm if norm > 0.0 else 1.0)


def _bb1(mem, short, alpha, s, g, g_new, rec) -> tuple[float, str]:
    """SPG's rule: the safeguarded BB1 stepsize s's/s'y (``bb``), or
    ALPHA_MAX when s'y <= 0 (``sy_nonpos``)."""
    sty = dot(s, g_new - g)
    if sty > 0.0:
        return _safeguard(dot(s, s) / sty), "bb"
    return ALPHA_MAX, "sy_nonpos"


def _long_short(long, mem, short, alpha, s, g, g_new, rec) -> tuple[float, str]:
    """A1's rule around its long-phase value ``long(mem)``, after the step
    is pushed into the memory: 1/||g|| when s'y <= 0 (``sy_nonpos``), else
    the long value in the long phase of the row's cycle (``long``) and in
    the short phase that value capped by a positive spectral estimate
    (``short_min``, recorded as ``spectral``), else BB2 (``short_bb2``)."""
    mem.push(g_new, s, alpha_used=alpha)
    rec["spectral"] = None
    if not dot(s, mem.y_prev) > 0.0:
        return (1.0 / mem.gnorm_cur if mem.gnorm_cur > 0.0 else 1.0), "sy_nonpos"
    long_next = long(mem)
    if not short:
        return _safeguard(long_next), "long"
    try:
        rec["spectral"] = spectral = bar_alpha_general(mem)
    except StepsizeUndefinedError:
        return _safeguard(mem.barbb2_cur), "short_bb2"
    if math.isfinite(spectral) and spectral > 0.0:
        return _safeguard(min(spectral, long_next)), "short_min"
    return _safeguard(mem.barbb2_cur), "short_bb2"


class _Variant(NamedTuple):
    first_pg: bool  # the first trial stepsize is 1/pg, else 1/||g||
    retry: bool  # an arc that collapsed numerically (g'd >= 0) retries once at 1/||g||
    step: Callable  # (memory, short phase, alpha, s, g, g_new, record) -> (next trial stepsize, label)
    pin_f_r: bool  # f_r = f_max after every accepted step
    cycle: tuple[int, int] | None  # (h, s): step k is short when k mod (h + s) >= h; None: all long


_VARIANTS = {
    # p_stepsize is looked up per call, so a wrapper on the module name sees it
    "A1": _Variant(False, True, partial(_long_short, lambda mem: p_stepsize(mem)), False, (10, 4)),
    "A1_BB1": _Variant(False, True, partial(_long_short, lambda mem: mem.barbb1_cur), False, (10, 4)),
    "A1_BB2": _Variant(False, True, partial(_long_short, lambda mem: mem.barbb2_cur), False, (10, 4)),
    "SPG": _Variant(True, False, _bb1, True, None),
}
BOX_VARIANTS = tuple(_VARIANTS)
# the (h, s) of each variant that runs a schedule
HS_VARIANTS = {v: row.cycle for v, row in _VARIANTS.items() if row.cycle}


def solve_box(
    oracle: ObjectiveOracle,
    bounds: BoxBounds,
    x1: np.ndarray,
    cfg: BoxRunConfig,
) -> RunTrace:
    """Gradient projection with the adaptive nonmonotone line search.

    Each decision that differs between variants is a field of the row of
    ``cfg.variant`` in ``_VARIANTS`` (see ``_Variant``). Stops when the
    projected gradient sup-norm reaches cfg.eps_pg.

    A failed run is returned as its trace up to the last accepted iterate
    (``x_final``), with the cause in ``failure``: ``diverged`` on a
    nonfinite objective or gradient norm at the start or at an accepted
    step, ``line_search_failed`` when the arc yields no descent direction
    or no step is accepted after ``MAX_BACKTRACKS`` backtracks. The
    evaluation counts include the failed search. An ``x1`` whose shape is
    not (n,), n = ``bounds.dim``, raises ``ValueError``.
    """
    row = _VARIANTS[cfg.variant]
    x = np.asarray(x1, dtype=np.float64)
    if x.shape != (bounds.dim,):
        raise ValueError(f"x1 has shape {x.shape}, expected ({bounds.dim},)")
    x = bounds.project(x)
    g = oracle.grad(x)
    fx = oracle.f(x)
    gnorm = math.sqrt(dot(g, g))
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
    ls = LineSearchState.fresh(fx, M=cfg.M)
    mem = StepsizeMemory()
    mem.start(g)
    alpha = _initial_alpha(pg if row.first_pg else gnorm)
    h, s = row.cycle or (1, 0)

    k = 1
    while not trace.stop(pg):
        d = direction(x, g, alpha, bounds)
        gd = dot(g, d)
        if gd >= 0.0 and row.retry:
            alpha = _initial_alpha(gnorm)
            d = direction(x, g, alpha, bounds)
            gd = dot(g, d)
        if gd >= 0.0:
            return finish("line_search_failed", "projection arc yields no descent direction")

        step = nonmonotone_search(oracle, x, d, gd, ls)
        if step is None:
            return finish("line_search_failed", f"no acceptable step after {MAX_BACKTRACKS} backtracks")
        lam, f_new, unit, x_new = step
        if not math.isfinite(f_new):
            return finish("diverged", f"nonfinite objective at iteration {k}")

        g_new = oracle.grad(x_new)
        gnorm = math.sqrt(dot(g_new, g_new))
        if not math.isfinite(gnorm):
            return finish("diverged", f"nonfinite gradient norm at iteration {k}")
        rec = {"k": k, "alpha": alpha, "gd": gd, "f_r": ls.f_r, "f_max": ls.f_max, "sigma": SIGMA,
               "lam": lam, "f_new": f_new, "unit": unit}
        records.append(rec)
        alpha, label = row.step(mem, k % (h + s) >= h, alpha, x_new - x, g, g_new, rec)

        update_reference(ls, f_new)
        if row.pin_f_r:
            ls.f_r = ls.f_max
        x, g = x_new, g_new
        pg = _pg_norm(x, g, bounds)
        trace.add(rec["alpha"], label, f_new, gnorm, pg)
        k += 1

    return finish()
