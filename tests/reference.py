"""Reference formulas and helpers that only the tests use.

The engine computes SD, AOPT and the BB pair inline from cached dot
products; these direct formulas are the independent oracle the tests
compare it against. Degenerate inputs raise ``StepsizeUndefinedError``,
like the package's own rules.
"""

import numpy as np

from specgrad.bench import ProfileData
from specgrad.problem import BoxBounds, QuadraticProblem
from specgrad.stepsize import StepsizeUndefinedError


def sd_stepsize(g: np.ndarray, p: QuadraticProblem) -> float:
    """Exact line-search (Cauchy) stepsize g'g / g'Ag."""
    gg = float(g @ g)
    if gg == 0.0:
        raise StepsizeUndefinedError("zero gradient")
    return gg / float(g @ p.apply(g))


def aopt_stepsize(g: np.ndarray, p: QuadraticProblem) -> float:
    """Norm-quotient stepsize ||g|| / ||Ag||, at most the Cauchy stepsize."""
    gn = float(np.linalg.norm(g))
    if gn == 0.0:
        raise StepsizeUndefinedError("zero gradient")
    return gn / float(np.linalg.norm(p.apply(g)))


def bb_pair(s: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Barzilai-Borwein pair (s's/s'y, s'y/y'y); pass the masked difference
    ybar as ``y`` for the bound-constrained pair."""
    sty = float(s @ y)
    yty = float(y @ y)
    if yty == 0.0:
        raise StepsizeUndefinedError("zero gradient difference: both BB stepsizes undefined")
    if sty == 0.0:
        raise StepsizeUndefinedError("s'y = 0: first BB stepsize undefined")
    return float(s @ s) / sty, sty / yty


def problem_to_json(p: QuadraticProblem) -> dict:
    """Explicit JSON description of a problem, the input format of
    ``QuadraticProblem.from_json`` (arrays inlined)."""
    if p.kind == "diag":
        return {"kind": "diag", "eigenvalues": p.hessian.tolist(), "b": p.b.tolist()}
    if p.kind == "dense":
        return {"kind": "dense", "matrix": p.hessian.tolist(), "b": p.b.tolist()}
    coo = p.hessian.tocoo()
    return {
        "kind": "sparse",
        "n": p.dim,
        "rows": coo.row.tolist(),
        "cols": coo.col.tolist(),
        "vals": coo.data.tolist(),
        "b": p.b.tolist(),
    }


def free_bounds(n: int) -> BoxBounds:
    """Bounds with every side free."""
    return BoxBounds(np.full(n, -np.inf), np.full(n, np.inf))


def contains(bounds: BoxBounds, x: np.ndarray) -> bool:
    """Whether x lies in the box."""
    return bool(np.all(x >= bounds.lower) and np.all(x <= bounds.upper))


def rho(profile: ProfileData, solver: str, tau: float) -> float:
    """Value of the solver's profile step function at tau."""
    value = 0.0
    for t, r in profile.breakpoints[solver]:
        if t <= tau:
            value = r
        else:
            break
    return value


# Methods whose f never rises on an SPD quadratic. SDC is left out: the
# Yuan step it holds through the short phase can exceed 2 g'g/g'Ag at
# later iterates, and f rises (SDC(10, 30) raises f on most SET problems
# of n = 50).
MONOTONE = {"SD", "AOPT", "DY", "NEWS0", "NEWS"}
