"""Fixed-rule gradient iteration x_{k+1} = x_k - alpha_k g_k on quadratics.

The engine runs one strategy on one problem and records a full trace.
Each iteration costs exactly one Hessian-vector product: the gradient is
advanced by the recurrence g_{k+1} = g_k - alpha_k A g_k and the
objective by the exact quadratic identity
f(x - alpha g) = f(x) - alpha ||g||^2 + alpha^2/2 g'Ag.

Every strategy is one row of a rule table: the long-phase value it takes
at k = 1, the long-phase value it takes from k = 2 on, and a short rule
with the (long, short) phase lengths that schedule it. Iterates are
indexed from k = 1 (the starting point); cyclic long/short schedules
evaluate mod(k, h+s) on that index directly. Where a short rule is
undefined (the spectral quotient one step back at k = 2) the strategy
takes its long-phase stepsize and the trace labels the iteration
``fallback``.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .problem import QuadraticProblem
from .stepsize import StepsizeUndefinedError, bar_alpha_direct, hat_alpha_direct, yuan_stepsize

__all__ = [
    "METHODS",
    "StrategySpec",
    "RunTrace",
    "DivergedError",
    "run",
    "stepsize_history_diagnostic",
]


class DivergedError(RuntimeError):
    """The iteration produced a nonfinite objective value.

    ``trace`` is the run recorded up to the last finite iterate
    (termination ``diverged``) where the raiser keeps one, else None.
    """

    def __init__(self, message: str, trace: "RunTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class _Caches:
    """Scalars/vectors the stepsize rules read, at the current iterate and
    (suffix ``_prev``) one iterate back; ``bar`` is the spectral quotient
    that the NEWS family's short rule reads."""

    __slots__ = (
        "g", "w", "gg", "gw", "gnorm", "sd", "aopt", "bb2",
        "g_prev", "w_prev", "gw_prev", "gnorm_prev", "sd_prev", "aopt_prev", "bb2_prev",
        "bar",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)


class _ShortState:
    """Per-run memory of the short rules: ABBMIN2's BB2 window, SDC's frozen step."""

    __slots__ = ("window", "tau", "frozen")

    def __init__(self, spec: "StrategySpec"):
        self.window = deque(maxlen=spec.abb_window)
        self.tau = spec.tau
        self.frozen = None


# Short rules: (caches, long value, first step of the short phase, state) -> (alpha, label)


def _yuan(c: _Caches, long_val: float, entering: bool, st: _ShortState) -> tuple[float, str]:
    """Two-point stepsize from the last two Cauchy steps (DY)."""
    return yuan_stepsize(c.sd_prev, c.sd, c.gnorm_prev, c.gnorm), "short"


def _yuan_frozen(c: _Caches, long_val: float, entering: bool, st: _ShortState) -> tuple[float, str]:
    """Two-point stepsize taken on entering the short phase and held through it (SDC)."""
    if entering:
        st.frozen = yuan_stepsize(c.sd_prev, c.sd, c.gnorm_prev, c.gnorm)
    return st.frozen, "short"


def _abb_min(c: _Caches, bb1: float, entering: bool, st: _ShortState) -> tuple[float, str]:
    """ABBMIN2 (Frassoldati, Zanghirati and Zanni, J. Ind. Manag. Optim. 4,
    2008): the minimum over the recent BB2 window when BB2_k/BB1_k < tau,
    else BB1_k. With the default window of two this is
    min{BB2_{k-1}, BB2_k}."""
    bb2 = c.bb2_prev
    st.window.append(bb2)
    if bb2 / bb1 < st.tau:
        return min(st.window), "short"
    return bb1, "long"


def _spectral(c: _Caches, long_val: float, entering: bool, st: _ShortState) -> tuple[float, str]:
    """Long value capped by the spectral quotient; the long value alone while
    the quotient is undefined (NEWS family)."""
    if c.bar is None:
        return long_val, "fallback"
    return min(long_val, c.bar), "short"


class _Rule(NamedTuple):
    first: str  # _Caches field holding the long value at k = 1
    later: str  # _Caches field holding the long value from k = 2 on
    short: Callable | None = None
    # (long, short) phase lengths; None takes the spec's (h, s)
    cycle: tuple[int, int] | None = (1, 0)
    # the NEWS short rule reads the quotient of the gradient pair `lag` steps back
    lag: int | None = None


_RULES = {
    "SD": _Rule("sd", "sd"),
    "BB1": _Rule("sd", "sd_prev"),
    "BB2": _Rule("sd", "bb2_prev"),
    "DY": _Rule("sd", "sd", _yuan, cycle=(2, 2)),
    "SDC": _Rule("sd", "sd", _yuan_frozen, cycle=None),
    "ABBMIN2": _Rule("sd", "sd_prev", _abb_min, cycle=(0, 1)),
    "AOPT": _Rule("aopt", "aopt"),
    "AOPT_RETARD": _Rule("aopt", "aopt_prev"),
    "NEWS0": _Rule("aopt", "aopt", _spectral, cycle=None, lag=0),
    "NEWS": _Rule("aopt", "aopt", _spectral, cycle=None, lag=1),
    "NEWS2": _Rule("aopt", "aopt_prev", _spectral, cycle=None, lag=1),
    "NEWS3": _Rule("aopt", "sd_prev", _spectral, cycle=None, lag=1),
    "NEWS4": _Rule("aopt", "bb2_prev", _spectral, cycle=None, lag=1),
}

METHODS = tuple(_RULES)
HS_METHODS = frozenset(m for m, rule in _RULES.items() if rule.cycle is None)
_MONOTONE = {"SD", "AOPT", "DY", "SDC", "NEWS0", "NEWS"}


@dataclass(frozen=True)
class StrategySpec:
    """Which stepsize rule to run, with its schedule parameters.

    h long steps followed by s short steps for the cyclic methods; tau and
    abb_window only apply to ABBMIN2, which takes
    alpha_k = min{BB2_j : k - abb_window < j <= k} when BB2_k/BB1_k < tau and
    BB1_k otherwise (Frassoldati, Zanghirati and Zanni, J. Ind. Manag. Optim.
    4, 2008). The default window of two, min{BB2_{k-1}, BB2_k}, is inferred
    from the paper's reference total over SET1-SET5 (it lands 4.5% above
    it; window 3 lands 17% below, window 5 29% below), because this
    repository does not hold the paper's parameter text.
    """

    method: str
    h: int = 10
    s: int = 30
    tau: float = 0.9
    abb_window: int = 2

    def __post_init__(self):
        m = self.method.upper()
        if m not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        object.__setattr__(self, "method", m)
        if m in HS_METHODS:
            if self.h < 2:
                raise ValueError("h must be at least 2")
            if self.s < 1:
                raise ValueError("s must be at least 1")
        if m == "ABBMIN2":
            if not 0.0 < self.tau < 1.0:
                raise ValueError("tau must lie in (0, 1)")
            if self.abb_window < 1:
                raise ValueError("abb_window must be positive")

    @property
    def monotone(self) -> bool:
        return self.method in _MONOTONE


@dataclass
class RunTrace:
    """Per-iteration record of one solver run.

    ``f`` and ``gnorm`` cover every visited iterate including the final
    one (length iterations + 1); ``alpha`` and ``branch`` cover the steps
    taken. ``gradients`` is populated only when gradient retention was
    requested. The evaluation counters are filled by the oracle-based
    solvers and stay zero for the quadratic engine.
    """

    f: np.ndarray
    gnorm: np.ndarray
    alpha: np.ndarray
    branch: list[str]
    iterations: int
    termination: str
    gradients: list[np.ndarray] | None = None
    func_evals: int = 0
    grad_evals: int = 0
    cpu_seconds: float = 0.0
    pg_inf: np.ndarray | None = None
    ls_records: list[dict] | None = field(default=None, repr=False)
    x_final: np.ndarray | None = field(default=None, repr=False)

    @property
    def final_gnorm_ratio(self) -> float:
        if self.gnorm[0] == 0.0:
            return 0.0
        return float(self.gnorm[-1] / self.gnorm[0])

    def summary(self) -> dict:
        out = {
            "iterations": self.iterations,
            "termination": self.termination,
            "final_gnorm_ratio": self.final_gnorm_ratio,
        }
        if self.grad_evals > 0:
            # oracle-based run: evaluation counters are part of the record
            out["func_evals"] = self.func_evals
            out["grad_evals"] = self.grad_evals
            out["cpu_seconds"] = self.cpu_seconds
        return out

    def to_csv(self, path: str) -> None:
        """Write columns k,f,gnorm,alpha,branch (step fields blank on the
        final visited iterate)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "f", "gnorm", "alpha", "branch"])
            for i in range(len(self.f)):
                if i < self.iterations:
                    writer.writerow(
                        [
                            i + 1,
                            repr(float(self.f[i])),
                            repr(float(self.gnorm[i])),
                            repr(float(self.alpha[i])),
                            self.branch[i],
                        ]
                    )
                else:
                    writer.writerow([i + 1, repr(float(self.f[i])), repr(float(self.gnorm[i])), "", ""])


class TraceRecorder:
    """Per-step record, stop test and ``RunTrace`` of one solver run.

    ``first`` holds (f, gnorm) at the starting point, plus the projected
    gradient sup-norm for the box solvers. ``add`` records one step as the
    row (alpha, branch) followed by the same fields at the iterate it
    reached. The last field is the stop measure: the run stops once it
    falls to ``tol`` (``gradient_tol``) or after ``max_iter`` steps
    (``iter_cap``).
    """

    def __init__(self, first: tuple, tol: float, max_iter: int):
        self.first = first
        self.rows: list[tuple] = []
        self.add = self.rows.append
        self.tol = tol
        self.max_iter = max_iter

    def stop(self, measure: float) -> bool:
        """Stop test at the newest iterate."""
        return measure <= self.tol or len(self.rows) >= self.max_iter

    def result(self, x_final: np.ndarray, termination: str | None = None, **extra) -> RunTrace:
        """The recorded run; ``termination`` overrides the stop test's verdict."""
        last = self.rows[-1] if self.rows else self.first
        cols = list(zip(*self.rows)) or [()] * (2 + len(self.first))
        f, gnorm, *pg = (np.array((v, *col)) for v, col in zip(self.first, cols[2:]))
        return RunTrace(
            f=f,
            gnorm=gnorm,
            alpha=np.array(cols[0], dtype=np.float64),
            branch=list(cols[1]),
            iterations=len(self.rows),
            termination=termination or ("gradient_tol" if last[-1] <= self.tol else "iter_cap"),
            pg_inf=pg[0] if pg else None,
            x_final=x_final,
            **extra,
        )


def _shift_in(c: _Caches, p: QuadraticProblem, g: np.ndarray) -> None:
    """Move the current values one iterate back and cache those of gradient g."""
    c.g_prev = c.g
    c.w_prev = c.w
    c.gw_prev = c.gw
    c.gnorm_prev = c.gnorm
    c.sd_prev = c.sd
    c.aopt_prev = c.aopt
    c.bb2_prev = c.bb2
    c.g = g
    c.w = w = p.apply(g)
    c.gg = gg = float(g @ g)
    c.gw = gw = float(g @ w)
    ww = float(w @ w)
    c.gnorm = math.sqrt(gg)
    if gg == 0.0:
        # stationary point: the loop terminates before any rule reads these
        c.sd = c.aopt = c.bb2 = None
    else:
        c.sd = gg / gw
        c.aopt = c.gnorm / math.sqrt(ww)
        c.bb2 = gw / ww


def _bar_alpha_cached(c: _Caches) -> float | None:
    """Spectral quotient for (g_{k-1}, g_k) from cached products; None when
    the normalized gradients cancel (or rounding makes d'd nonpositive)."""
    cross_gg = float(c.g_prev @ c.g)
    cross_wg = float(c.w_prev @ c.g)
    denom = c.gnorm_prev * c.gnorm
    dd = 2.0 - 2.0 * cross_gg / denom
    dad = c.gw_prev / c.gnorm_prev**2 + c.gw / c.gnorm**2 - 2.0 * cross_wg / denom
    if dd <= 0.0 or dad <= 0.0:
        return None
    return dd / dad


def run(
    p: QuadraticProblem,
    x1: np.ndarray,
    spec: StrategySpec,
    eps: float = 1e-9,
    max_iter: int = 20000,
    retain_gradients: bool = False,
) -> RunTrace:
    """Iterate until ||g_k|| <= eps * ||g_1|| or the step count hits max_iter.

    Same problem, start, and spec give a bitwise-identical trace on the
    same BLAS thread count. The path does not depend on ``eps``, which only
    decides where it stops. A step to a nonfinite objective raises
    ``DivergedError`` carrying the trace up to the last finite iterate.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    x = np.asarray(x1, dtype=np.float64).copy()
    if x.shape != (p.dim,):
        raise ValueError(f"x1 has shape {x.shape}, expected ({p.dim},)")

    g = p.gradient(x)
    gnorm1 = float(np.linalg.norm(g))
    f = 0.5 * float(x @ g) - 0.5 * float(p.b @ x)
    trace = TraceRecorder((f, gnorm1), eps * gnorm1, max_iter)
    grads = [g.copy()] if retain_gradients else None
    if trace.stop(gnorm1):
        return trace.result(x, gradients=grads)

    rule = _RULES[spec.method]
    h, s = rule.cycle or (spec.h, spec.s)
    period = h + s
    later, short, state = attrgetter(rule.later), rule.short, _ShortState(spec)
    # bars[0] is the quotient `lag` steps back, None until it exists
    bars = None if rule.lag is None else deque([None] * rule.lag, maxlen=rule.lag + 1)
    c = _Caches()
    _shift_in(c, p, g)
    alpha, label = getattr(c, rule.first), "long"
    add, tol = trace.add, trace.tol
    k = 1
    while True:
        f = f - alpha * c.gg + 0.5 * alpha * alpha * c.gw
        if not math.isfinite(f):
            raise DivergedError(
                f"nonfinite objective at iteration {k}",
                trace.result(x, "diverged", gradients=grads),
            )
        x -= alpha * c.g
        g_new = c.g - alpha * c.w
        _shift_in(c, p, g_new)
        if retain_gradients:
            grads.append(g_new.copy())
        add((alpha, label, f, c.gnorm))
        if c.gnorm <= tol or k >= max_iter:  # trace.stop, inlined
            return trace.result(x, gradients=grads)

        k += 1
        if bars is not None:
            bars.append(_bar_alpha_cached(c))
            c.bar = bars[0]
        alpha, label = later(c), "long"
        phase = k % period
        if phase >= h:
            alpha, label = short(c, alpha, phase == h, state)


def stepsize_history_diagnostic(
    trace: RunTrace, p: QuadraticProblem
) -> list[tuple[int, float, float]]:
    """Series (k, quotient over normalized-gradient difference, quotient over
    sum) for consecutive retained gradient pairs; degenerate pairs emit NaN."""
    if trace.gradients is None or len(trace.gradients) < 2:
        return []
    out = []
    for k in range(2, len(trace.gradients) + 1):
        g_prev, g_cur = trace.gradients[k - 2], trace.gradients[k - 1]
        try:
            bar = bar_alpha_direct(g_prev, g_cur, p)
        except StepsizeUndefinedError:
            bar = math.nan
        try:
            hat = hat_alpha_direct(g_prev, g_cur, p)
        except StepsizeUndefinedError:
            hat = math.nan
        out.append((k, bar, hat))
    return out
