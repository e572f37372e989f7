"""Fixed-rule gradient iteration x_{k+1} = x_k - alpha_k g_k on quadratics.

There is one engine, ``each_trace``: it runs any number of strategies
on one problem from one start in lockstep and yields each strategy's
full trace as soon as its row stops; ``run_many`` collects the traces
in spec order. The strategies' iterates, gradients and Hessian products
are the rows of (B, n) blocks; a block of one row is a plain vector, and
``run`` is a block of one row. Each iteration costs exactly one
Hessian-vector product per row: the gradient is advanced by the
recurrence g_{k+1} = g_k - alpha_k A g_k and the objective by the exact
quadratic identity f(x - alpha g) = f(x) - alpha ||g||^2 + alpha^2/2 g'Ag.

A row's trace is bitwise equal to its strategy run alone, because every
row takes the same floating-point operations as a lone vector:
- each row's inner products are ``problem.row_dots``, whose every row is
  ``problem.dot`` of that row alone; the package sums long dots in
  chunks (see ``dot``), so a trace does not depend on the BLAS thread
  count;
- the block updates and a diagonal Hessian product act per element,
  and a dense, sparse or stencil Hessian product is taken one row at a
  time, since a (B, n) @ A' product sums in another order;
- all rule arithmetic runs on Python floats, one row at a time (numpy's
  vectorised square differs from Python's ``x**2`` in the last bit of
  some doubles).

Every strategy is one row of a rule table: the long-phase value it takes
at k = 1, the long-phase value it takes from k = 2 on, and a short rule
with the (long, short) phase lengths that schedule it. Iterates are
indexed from k = 1 (the starting point); cyclic long/short schedules
evaluate mod(k, h+s) on that index directly. Where a short rule is
undefined (the spectral quotient one step back at k = 2) the strategy
takes its long-phase stepsize and the trace labels the iteration
``fallback``.

Spans: a one-row block walks its vectors in column spans of
``STEP_CHUNK`` elements. One pass over the spans takes both updates and
the lagged cross dots, and after the Hessian product (one whole call) a
second pass takes the next iterate's three dots, so each span is read
from memory once per pass and dotted while it is still in L2. Spans of
32k elements beat 16k and 64k ones: a step's vector work at n = 216,000
took 0.72 ms against 0.78 and 0.77 ms, and 1.12 ms on whole vectors
(the measurement is at ``STEP_CHUNK``). A span is a whole number of
``DOT_CHUNK`` chunks, so its dots sum to the whole dot (see ``dot``). A
block of several rows, whose rows are at most ``BLOCK_ELEMENTS // 2``
long, takes its arrays whole, as one span.

Buffers: a block takes its working arrays once, each from
``problem.aligned_empty`` (whose docstring holds the measured reason):
the iterates X, the gradient G, one scratch array S one span long, for
several rows the stepsizes spread over the rows, and the Hessian
products W; a one-row block holds three n-vectors and a span. A step
writes into them through ``out=`` (the stepsizes by one ``np.copyto``).
No array holds the next gradient: a span's next gradient overwrites G's
span in place, or, where the lagged cross dots still read the current
one, is formed in S and copied back after them; a block of one span
swaps G and S instead. When rows stop the others move up into the
leading rows in place. The same ufuncs and BLAS dots run on the same
operands in the same order as on fresh arrays, so every bit is the same.
Blocks run one after another in the calling thread; a plan gets its
parallelism from ``bench.run_plan``'s processes.

Streaming: the engine reads the start x1 without copying it, and keeps
the start gradient only until ||g_1||, f_1 and any retained copies are
taken; each block computes its own G = A x1 - b, one product more per
block. The start gradient takes a map of its own from ``aligned_empty``
(the same product and subtraction as ``p.gradient``), so it goes back
to the system when it is dropped: from ``malloc``, it left one n-vector
of freed heap resident beside every later instance's block (the
measurement is in ``aligned_empty``'s docstring). A trace leaves the
engine when its row stops, and the engine keeps no reference to it; a
one-row block, which ends with its row, hands over its own X as
``x_final`` uncopied. So a caller that drops each trace before it
resumes the generator, as ``bench`` does, holds one block's arrays and
no finished trace's n-vector ``x_final``. Measured on
one table5 instance of 13 one-row blocks (3 steps each), the peak per
process is 62 MB at N = 100 (n = 10^6) and 38 MB at N = 60, against 77
and 42 MB with a next-gradient array and a copied ``x_final``; every
trace kept until the last strategy stopped took 193 MB at N = 100. The
peak stays there on every later instance of a process.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .problem import DOT_CHUNK, QuadraticProblem, aligned_empty, check_field_types, dot, row_dots
from .stepsize import StepsizeUndefinedError, bar_alpha_direct, hat_alpha_direct, yuan_stepsize

__all__ = [
    "METHODS",
    "StrategySpec",
    "RunTrace",
    "run",
    "run_many",
    "each_trace",
    "stepsize_history_diagnostic",
]

# A block holds at most max(1, BLOCK_ELEMENTS // n) rows: 65 at n = 1000,
# and one row, a plain vector, from n = 32769 on, so a large problem's
# memory and work per iteration are those of a single run.
BLOCK_ELEMENTS = 2**16

# A one-row block steps span by span (see the module docstring). A span
# of this many elements of X, G, W and S takes 1 MB of the 2 MB L2 per
# core of a 2-core Xeon host (1.25 MB with the next-gradient array of
# the measurement below). Measured there at
# n = 216,000 (Laplace N = 60), one BLAS thread, best of 1000 steps: both
# updates and the five dots took 1.00, 0.78, 0.72 and 0.77 ms in spans
# of 8k, 16k, 32k and 64k elements, against 1.12 ms on whole vectors.
STEP_CHUNK = 4 * DOT_CHUNK
assert STEP_CHUNK % DOT_CHUNK == 0


class _Row:
    """One strategy's run inside a block.

    It holds the scalars the stepsize rules read, at the current iterate
    and (suffix ``_prev``) one iterate back, with ``bar`` the spectral
    quotient that the NEWS family's short rule reads; its rule and
    schedule; the short rules' memory (ABBMIN2's BB2 ``window`` and
    ``tau``, SDC's ``frozen`` step); its step count k, the step it takes
    next (alpha, label) with the objective f it reaches; its recorder; its
    place ``out`` among the traces, and its ``method``, which a failure's
    cause names.
    """

    __slots__ = (
        "gw", "gnorm", "sd", "aopt", "bb2",
        "gw_prev", "gnorm_prev", "sd_prev", "aopt_prev", "bb2_prev", "bar",
        "first", "later", "short", "h", "period", "bars", "window", "tau", "frozen",
        "k", "alpha", "label", "f", "trace", "grads", "out", "method",
    )

    def __init__(self, spec: "StrategySpec", f1: float, trace: "TraceRecorder", grads: list | None, out: int):
        self.gw = self.gnorm = self.sd = self.aopt = self.bb2 = self.bar = None
        rule = _RULES[spec.method]
        self.first, self.later = attrgetter(rule.first), attrgetter(rule.later)
        self.h, s = rule.cycle or (spec.h, spec.s)
        self.period = self.h + s
        self.short = rule.short
        self.window, self.tau, self.frozen = deque(maxlen=spec.abb_window), spec.tau, None
        # bars[0] is the quotient `lag` steps back, None until it exists
        self.bars = None if rule.lag is None else deque([None] * rule.lag, maxlen=rule.lag + 1)
        self.k, self.f = 0, f1
        self.trace, self.grads, self.out = trace, grads, out
        self.method = spec.method


# Short rules: (row, long value, first step of the short phase) -> (alpha, label)


def _yuan(c: _Row, long_val: float, entering: bool) -> tuple[float, str]:
    """Two-point stepsize from the last two Cauchy steps (DY)."""
    return yuan_stepsize(c.sd_prev, c.sd, c.gnorm_prev, c.gnorm), "short"


def _yuan_frozen(c: _Row, long_val: float, entering: bool) -> tuple[float, str]:
    """Two-point stepsize taken on entering the short phase and held through it (SDC)."""
    if entering:
        c.frozen = yuan_stepsize(c.sd_prev, c.sd, c.gnorm_prev, c.gnorm)
    return c.frozen, "short"


def _abb_min(c: _Row, bb1: float, entering: bool) -> tuple[float, str]:
    """ABBMIN2 (Frassoldati, Zanghirati and Zanni, J. Ind. Manag. Optim. 4,
    2008): the minimum over the recent BB2 window when BB2_k/BB1_k < tau,
    else BB1_k. With the default window of two this is
    min{BB2_{k-1}, BB2_k}."""
    bb2 = c.bb2_prev
    c.window.append(bb2)
    if bb2 / bb1 < c.tau:
        return min(c.window), "short"
    return bb1, "long"


def _spectral(c: _Row, long_val: float, entering: bool) -> tuple[float, str]:
    """Long value capped by the spectral quotient; the long value alone while
    the quotient is undefined (NEWS family)."""
    if c.bar is None:
        return long_val, "fallback"
    return min(long_val, c.bar), "short"


class _Rule(NamedTuple):
    first: str  # _Row field holding the long value at k = 1
    later: str  # _Row field holding the long value from k = 2 on
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
        check_field_types(self)
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


@dataclass
class RunTrace:
    """Per-iteration record of one solver run.

    ``f`` and ``gnorm`` cover every visited iterate including the final
    one (length iterations + 1); ``alpha`` and ``branch`` cover the steps
    taken. ``gradients`` is populated only when gradient retention was
    requested. The evaluation counters are filled by the oracle-based
    solvers and stay zero for the quadratic engine. ``failure`` holds the
    cause of a run that ended ``diverged`` or ``line_search_failed``, and
    is None for every other run.
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
    pg_inf: np.ndarray | None = None
    ls_records: list[dict] | None = field(default=None, repr=False)
    x_final: np.ndarray | None = field(default=None, repr=False)
    failure: str | None = None

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
        return out

    def to_csv(self, path: str) -> None:
        """Write columns k,f,gnorm,alpha,branch (step fields blank on the
        final visited iterate)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "f", "gnorm", "alpha", "branch"])
            for i in range(len(self.f)):
                step = [repr(float(self.alpha[i])), self.branch[i]] if i < self.iterations else ["", ""]
                writer.writerow([i + 1, repr(float(self.f[i])), repr(float(self.gnorm[i])), *step])


class TraceRecorder:
    """Per-step record, stop test and ``RunTrace`` of one solver run.

    It starts from (f, gnorm) at the starting point, plus ``pg``, the
    projected gradient sup-norm, for the box solvers. ``add`` records one
    step, (alpha, branch), and the same fields at the iterate it reached.
    The stop measure is pg where it is recorded, else gnorm: the run
    stops once it falls to ``tol`` (``gradient_tol``) or after
    ``max_iter`` steps (``iter_cap``). Columns are typed float arrays,
    8 bytes a value, so many live recorders stay small.
    """

    def __init__(self, f: float, gnorm: float, tol: float, max_iter: int, pg: float | None = None):
        self.alpha = array("d")
        self.branch: list[str] = []
        self.f = array("d", [f])
        self.gnorm = array("d", [gnorm])
        self.pg = None if pg is None else array("d", [pg])
        self.measure = self.gnorm if pg is None else self.pg
        self.tol = tol
        self.max_iter = max_iter

    def add(self, alpha: float, label: str, f: float, gnorm: float, pg: float | None = None) -> None:
        self.alpha.append(alpha)
        self.branch.append(label)
        self.f.append(f)
        self.gnorm.append(gnorm)
        if pg is not None:
            self.pg.append(pg)

    def stop(self, measure: float) -> bool:
        """Stop test at the newest iterate."""
        return measure <= self.tol or len(self.alpha) >= self.max_iter

    def result(self, x_final: np.ndarray, termination: str | None = None, **extra) -> RunTrace:
        """The recorded run; ``termination`` overrides the stop test's verdict."""
        return RunTrace(
            f=np.array(self.f),
            gnorm=np.array(self.gnorm),
            alpha=np.array(self.alpha),
            branch=self.branch,
            iterations=len(self.alpha),
            termination=termination or ("gradient_tol" if self.measure[-1] <= self.tol else "iter_cap"),
            pg_inf=None if self.pg is None else np.array(self.pg),
            x_final=x_final,
            **extra,
        )


def _bar_alpha_cached(c: _Row, cross_gg: float, cross_wg: float) -> float | None:
    """Spectral quotient for (g_{k-1}, g_k) from cached products and the
    cross products g_{k-1}'g_k, (Ag_{k-1})'g_k; None when the normalized
    gradients cancel (or rounding makes d'd nonpositive)."""
    denom = c.gnorm_prev * c.gnorm
    dd = 2.0 - 2.0 * cross_gg / denom
    dad = c.gw_prev / c.gnorm_prev**2 + c.gw / c.gnorm**2 - 2.0 * cross_wg / denom
    if dd <= 0.0 or dad <= 0.0:
        return None
    return dd / dad


def run_many(
    p: QuadraticProblem,
    x1: np.ndarray,
    specs: list[StrategySpec],
    eps: float = 1e-9,
    max_iter: int = 20000,
    retain_gradients: bool = False,
) -> list[RunTrace]:
    """Run every strategy in ``specs`` on ``p`` from ``x1``; one trace per spec, in order.

    The traces of ``each_trace``, collected into spec order, so every
    trace stays alive until the last strategy has stopped (a plan turns
    each into rows as it comes instead). Each strategy iterates until
    ||g_k|| <= eps * ||g_1|| or its step count hits max_iter. Every trace
    is bitwise equal to that strategy run alone, whatever the other rows
    are, and the same under any BLAS thread count. The path does not
    depend on ``eps``, which only decides where it stops.

    A row that fails numerically is returned, not raised: it ends
    ``diverged`` with its trace up to the last iterate whose objective is
    finite and the cause in ``failure``, and the other rows run on. Only
    f is kept finite: ||g|| at that iterate may already be inf (ROADMAP
    item 5). The causes are a nonfinite ||g_1|| or f_1 at the start, a
    step to a nonfinite objective, nonpositive curvature g'Ag <= 0 (a
    singular or indefinite Hessian) and an undefined (overflowed) stepsize.
    """
    traces: list[RunTrace | None] = [None] * len(specs)
    for i, trace in each_trace(p, x1, specs, eps, max_iter, retain_gradients):
        traces[i] = trace
    return traces


def each_trace(
    p: QuadraticProblem,
    x1: np.ndarray,
    specs: list[StrategySpec],
    eps: float = 1e-9,
    max_iter: int = 20000,
    retain_gradients: bool = False,
) -> Iterator[tuple[int, RunTrace]]:
    """Yield (index into ``specs``, trace) for every strategy, each as its
    row stops; ``run_many`` takes the same arguments and states the rules.

    The strategies advance in lockstep blocks of at most
    max(1, BLOCK_ELEMENTS // n) rows, which run one after another, and a
    row that stops leaves its block and is yielded at once; a row that
    stops at the start is yielded before any block runs. The engine
    keeps no trace it has yielded, so a caller that drops each one before
    resuming holds at most one finished trace (and its n-vector
    ``x_final``) at a time. ``x1`` is read, not copied: it must not change
    while the generator runs. The arguments are checked when the first
    trace is asked for.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    x = np.asarray(x1, dtype=np.float64, order="C")  # a strided x1 is copied, so its dots sum as a contiguous one's
    if x.shape != (p.dim,):
        raise ValueError(f"x1 has shape {x.shape}, expected ({p.dim},)")

    # p.gradient(x) in a map of its own (see the module docstring's Streaming)
    g = p.apply(x, out=aligned_empty(p.dim))
    np.subtract(g, p.b, out=g)
    gnorm1 = math.sqrt(dot(g, g))
    f1 = 0.5 * dot(x, g) - 0.5 * dot(p.b, x)
    tol = eps * gnorm1
    failure = None
    if not (math.isfinite(gnorm1) and math.isfinite(f1)):
        failure = "nonfinite gradient norm or objective at the start"
    rows = []
    for out, spec in enumerate(specs):
        trace = TraceRecorder(f1, gnorm1, tol, max_iter)
        grads = [g.copy()] if retain_gradients else None
        if failure:
            yield out, trace.result(x.copy(), "diverged", gradients=grads, failure=failure)
        elif trace.stop(gnorm1):
            yield out, trace.result(x.copy(), gradients=grads)
        else:
            rows.append(_Row(spec, f1, trace, grads, out))
    del g  # each block takes its own start gradient (see _run_block)
    height = max(1, BLOCK_ELEMENTS // p.dim)
    for i in range(0, len(rows), height):
        yield from _run_block(p, x, rows[i : i + height], tol, max_iter)


def _run_block(p, x, live, tol, max_iter) -> Iterator[tuple[int, RunTrace]]:
    """Run the rows ``live`` from iterate 1, ``x``, until each has
    stopped, yielding (its place among the traces, its trace) as it stops;
    rows leave the block as they stop. ``x`` is shared between blocks and
    never written. The block takes the start gradient A x - b into its
    own array by the per-element operations of ``p.gradient``, so its
    bits are the same at the cost of one product per block. Each step
    writes the next gradient over G (see the module docstring's
    Buffers), and a one-row block yields its X itself as the stopped
    row's ``x_final``, since the block returns right after it."""
    n = p.dim
    one = len(live) == 1
    # the working arrays, allocated once (see the module docstring)
    shape = n if one else (len(live), n)
    # a lone row walks its vectors in spans, a block takes one span
    width = min(n, STEP_CHUNK) if one else n
    spans = [slice(lo, lo + width) for lo in range(0, n, width)]
    X, G = aligned_empty(shape), aligned_empty(shape)
    S = aligned_empty(width if one else shape)
    AL = None if one else aligned_empty(shape)
    np.copyto(X, x)
    np.subtract(p.apply(X, out=G), p.b, out=G)
    W = p.apply(G, out=aligned_empty(shape))
    lagged = any(r.bars is not None for r in live)
    while True:
        # the dots of this iterate, in one pass over the spans
        GG = GW = WW = None
        for s in spans:
            Gs, Ws = G[..., s], W[..., s]
            GG, GW, WW = row_dots(Gs, Gs, GG), row_dots(Gs, Ws, GW), row_dots(Ws, Ws, WW)

        done = []
        for i, r in enumerate(live):
            gg = GG[i]
            gnorm = math.sqrt(gg)
            k = r.k
            if k:  # record the step that reached this iterate, then the stop test
                r.trace.add(r.alpha, r.label, r.f, gnorm)
                if r.grads is not None:
                    r.grads.append(G.reshape(-1, n)[i].copy())
                if gnorm <= tol or k >= max_iter:
                    done.append(i)
                    yield r.out, r.trace.result(X if one else X[i].copy(), gradients=r.grads)
                    continue
            r.k = k = k + 1
            gw, ww = GW[i], WW[i]
            if gw <= 0.0:  # a singular or indefinite Hessian; no stepsize rule is defined
                failure = f"nonpositive curvature at iteration {k}: g'Ag = {gw:.6g}"
            else:
                try:
                    # move the cached values one iterate back, then cache this one's
                    r.gw_prev, r.gnorm_prev, r.sd_prev = r.gw, r.gnorm, r.sd
                    r.aopt_prev, r.bb2_prev = r.aopt, r.bb2
                    r.gw, r.gnorm = gw, gnorm
                    r.sd = gg / gw
                    r.aopt = gnorm / math.sqrt(ww)
                    r.bb2 = gw / ww
                    if k == 1:
                        alpha, label = r.first(r), "long"
                    else:
                        bars = r.bars
                        if bars is not None:
                            bars.append(_bar_alpha_cached(r, CGG[i], CWG[i]))
                            r.bar = bars[0]
                        alpha, label = r.later(r), "long"
                        phase = k % r.period
                        if phase >= r.h:
                            alpha, label = r.short(r, alpha, phase == r.h)
                except OverflowError:  # a float ** whose result is out of range
                    failure = f"stepsize undefined at iteration {k}: the {r.method} stepsize overflowed"
                except (ArithmeticError, StepsizeUndefinedError) as exc:
                    failure = f"stepsize undefined at iteration {k}: {exc}"
                else:
                    f = r.f - alpha * gg + 0.5 * alpha * alpha * gw
                    if math.isfinite(f):
                        r.alpha, r.label, r.f = alpha, label, f
                        continue
                    failure = f"nonfinite objective at iteration {k}"
            done.append(i)
            yield r.out, r.trace.result(X if one else X[i].copy(), "diverged", gradients=r.grads, failure=failure)

        if done:
            if len(done) == len(live):
                return
            keep = [i for i in range(len(live)) if i not in done]
            live = [live[i] for i in keep]
            # the rows that go on move up, in order, into the leading rows
            for j, i in enumerate(keep):
                if i != j:
                    X[j], G[j], W[j] = X[i], G[i], W[i]
            m = len(keep)
            X, G, W, AL, S = X[:m], G[:m], W[:m], AL[:m], S[:m]
            lagged = any(r.bars is not None for r in live)

        # one step for every row: a lone row steps by a float, a block by
        # its rows' stepsizes, each spread over its row; each span is
        # updated and dotted in one pass. The next gradient overwrites G's
        # span, in place, or, where the lagged dots still read the current
        # one, from S after them (a block of one span swaps G and S)
        if one:
            A = live[0].alpha
        else:
            A = AL
            np.copyto(A, np.array([r.alpha for r in live])[:, None])
        CGG = CWG = None
        for s in spans:
            Xs, Gs, Ws = X[..., s], G[..., s], W[..., s]
            Ss = S[..., : Gs.shape[-1]]
            np.subtract(Xs, np.multiply(A, Gs, out=Ss), out=Xs)
            Ns = Ss if lagged else Gs
            np.subtract(Gs, np.multiply(A, Ws, out=Ss), out=Ns)
            if lagged:
                CGG, CWG = row_dots(Gs, Ns, CGG), row_dots(Ws, Ns, CWG)
                if len(spans) > 1:
                    np.copyto(Gs, Ns)
        if lagged and len(spans) == 1:
            G, S = S, G
        W = p.apply(G, out=W)


def run(
    p: QuadraticProblem,
    x1: np.ndarray,
    spec: StrategySpec,
    eps: float = 1e-9,
    max_iter: int = 20000,
    retain_gradients: bool = False,
) -> RunTrace:
    """One strategy: ``run_many(p, x1, [spec], ...)[0]``, a block of one row.

    Iterates until ||g_k|| <= eps * ||g_1|| or the step count hits
    max_iter. Same problem, start, and spec give a bitwise-identical trace
    under any BLAS thread count. A numerical failure is returned, not
    raised: the trace ends ``diverged`` with its cause in ``failure`` (see
    ``run_many``).
    """
    return run_many(p, x1, [spec], eps, max_iter, retain_gradients)[0]


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
        pair = []
        for quotient in (bar_alpha_direct, hat_alpha_direct):
            try:
                pair.append(quotient(g_prev, g_cur, p))
            except StepsizeUndefinedError:
                pair.append(math.nan)
        out.append((k, *pair))
    return out
