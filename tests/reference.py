"""Reference formulas and helpers that only the tests use.

The engine computes SD, AOPT and the BB pair inline from cached dot
products; these direct formulas are the independent oracle the tests
compare it against. Degenerate inputs raise ``StepsizeUndefinedError``,
like the package's own rules. ``reference_run`` is a whole-run oracle:
a plain loop for four of the engine's methods, written apart from its
rule table, blocks and spans.
"""

import numpy as np

from specgrad.bench import ProfileData
from specgrad.problem import DOT_CHUNK, BoxBounds, QuadraticProblem
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


def chunk_dot(a: np.ndarray, b: np.ndarray):
    """a'b, a scalar of the vectors' dtype, as the sum, left to right, of
    the dots of consecutive ``DOT_CHUNK``-element slices (in float64 each
    a 1-D BLAS dot): the summation order the engine promises for every
    inner product."""
    total = None
    for lo in range(0, a.shape[0], DOT_CHUNK):
        part = a[lo : lo + DOT_CHUNK] @ b[lo : lo + DOT_CHUNK]
        total = part if total is None else total + part
    return total


def reference_run(d, b, x1, method: str, h: int = 10, s: int = 30, eps: float = 1e-9, max_iter: int = 20000):
    """SD, BB1, DY or NEWS(h, s) on 0.5 x'diag(d)x - b'x from x1, as one
    plain loop over whole vectors with ``chunk_dot``, every value in the
    dtype of ``d`` (``b`` and ``x1`` are cast to it).

    It takes the engine's floating-point operations in the engine's
    order (the f recurrence, the cached SD, AOPT and BB1 values, Yuan's
    two-point step, the spectral quotient from cross dots; a scalar
    squared by ``**``, as Python's ``x**2``), so in float64 its results
    must equal a ``run`` trace bit for bit; in ``np.longdouble`` it runs
    the same rules in more precision. Returns (f, gnorm, alpha, x_final,
    termination), the first four as arrays of that dtype."""
    b = np.asarray(b, dtype=d.dtype)
    x = np.array(x1, dtype=d.dtype)
    g = d * x - b
    gg = chunk_dot(g, g)
    gnorm = np.sqrt(gg)
    f = 0.5 * chunk_dot(x, g) - 0.5 * chunk_dot(b, x)
    tol = eps * gnorm
    fs, gnorms, alphas = [f], [gnorm], []
    sd = gnorm_prev = gw = cgg = cwg = None
    bars = [None, None]  # spectral quotients of the last two gradient pairs
    k = 1
    while gnorm > tol and len(alphas) < max_iter:
        w = d * g
        gw_prev, gw = gw, chunk_dot(g, w)
        sd_prev, sd = sd, gg / gw
        aopt = gnorm / np.sqrt(chunk_dot(w, w))
        if method == "NEWS" and k > 1:  # the quotient of (g_{k-1}, g_k), from cross dots
            denom = gnorm_prev * gnorm
            dd = 2.0 - 2.0 * cgg / denom
            dad = gw_prev / gnorm_prev**2 + gw / gnorm**2 - 2.0 * cwg / denom
            bars = [bars[1], dd / dad if dd > 0.0 and dad > 0.0 else None]
        if method == "SD" or k == 1 and method != "NEWS":
            alpha = sd
        elif method == "BB1":
            alpha = sd_prev
        elif method == "DY":
            alpha = sd
            if k % 4 >= 2:
                a, c = 1.0 / sd_prev, 1.0 / sd
                alpha = 2.0 / (np.sqrt((a - c) ** 2 + 4.0 * gnorm**2 / (sd_prev * gnorm_prev) ** 2) + a + c)
        elif method == "NEWS":
            alpha = aopt
            if k % (h + s) >= h and bars[0] is not None:
                alpha = min(aopt, bars[0])
        else:
            raise ValueError(f"no reference loop for {method}")
        f = f - alpha * gg + 0.5 * alpha * alpha * gw
        x = x - alpha * g
        g_new = g - alpha * w
        cgg, cwg = chunk_dot(g, g_new), chunk_dot(w, g_new)
        g, gnorm_prev, k = g_new, gnorm, k + 1
        gg = chunk_dot(g, g)
        gnorm = np.sqrt(gg)
        fs.append(f)
        gnorms.append(gnorm)
        alphas.append(alpha)
    termination = "gradient_tol" if gnorm <= tol else "iter_cap"
    return np.array(fs), np.array(gnorms), np.array(alphas), x, termination
