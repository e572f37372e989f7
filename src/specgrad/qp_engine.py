"""Fixed-rule gradient iteration x_{k+1} = x_k - alpha_k g_k on quadratics.

There is one engine, ``run_many``: it runs any number of strategies on
one problem from one start in lockstep and records a full trace per
strategy. The strategies' iterates, gradients and Hessian products are
the rows of (B, n) blocks; a block of one row is a plain vector, and
``run`` is a block of one row. Each iteration costs exactly one
Hessian-vector product per row: the gradient is advanced by the
recurrence g_{k+1} = g_k - alpha_k A g_k and the objective by the exact
quadratic identity f(x - alpha g) = f(x) - alpha ||g||^2 + alpha^2/2 g'Ag.

A row's trace is bitwise equal to its strategy run alone, because every
row takes the same floating-point operations as a lone vector:
- each row's inner products go through the BLAS dot that a 1-D
  ``a @ b`` calls (a stacked ``matmul`` of (1, n) by (n, 1) slices takes
  numpy's vector-dot path); vectors longer than ``DOT_CHUNK`` are dotted
  chunk by chunk (see ``_dot``);
- the block updates and a diagonal Hessian product act per element,
  and a dense or sparse Hessian product is taken one row at a time,
  since a (B, n) @ A' product sums in another order;
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

Buffers: a block takes its working arrays once, each from
``problem.aligned_empty`` (whose docstring holds the measured reason):
the iterates X, the gradient G and the next one, one scratch array, for
several rows the stepsizes spread over the rows, and for a diagonal
Hessian the products W. A step writes into them through ``out=`` (the
stepsizes by one ``np.copyto``), G and the next gradient swap, and when
rows stop the others move up into the leading rows in place. The same
ufuncs and BLAS dots run in the same order as on fresh arrays, so every
bit is the same.

Concurrency: when a problem is large enough that every block is one row
(n > BLOCK_ELEMENTS // 2), the calling thread and min(cores, blocks) - 1
worker threads take the blocks from one shared queue, where cores are the
CPUs of the calling process's affinity mask. Such a row's time
goes mostly to the Hessian product and the vector updates, native code
that releases the interpreter lock; its chunk dots (``_dot``) hold it.
Blocks of several rows run one after another on the calling thread, as
their per-row rule arithmetic holds it. Each row performs the same
operations wherever it runs, and no dot product is long enough for the
BLAS to split it across its own threads, so a trace depends on neither
the worker threads nor the BLAS thread count. Inside ``bench.run_plan``
each process owns one CPU, so no worker thread starts there; direct
callers (``specgrad solve`` and ``diag``) keep the threads.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from array import array
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .problem import QuadraticProblem, aligned_empty
from .stepsize import StepsizeUndefinedError, bar_alpha_direct, hat_alpha_direct, yuan_stepsize

__all__ = [
    "METHODS",
    "StrategySpec",
    "RunTrace",
    "run",
    "run_many",
    "stepsize_history_diagnostic",
]

# A block holds at most max(1, BLOCK_ELEMENTS // n) rows: 65 at n = 1000,
# and one row, a plain vector, from n = 32769 on, so a large problem's
# memory and work per iteration are those of a single run.
BLOCK_ELEMENTS = 2**16

# Inner products of longer vectors are summed chunk by chunk, left to
# right. A BLAS dot of at most this many elements runs on one thread
# (OpenBLAS splits a dot only above about 10^4 elements), so the chunked
# sum is the same under any BLAS thread count.
DOT_CHUNK = 8192


class _Row:
    """One strategy's run inside a block.

    It holds the scalars the stepsize rules read, at the current iterate
    and (suffix ``_prev``) one iterate back, with ``bar`` the spectral
    quotient that the NEWS family's short rule reads; its rule and
    schedule; the short rules' memory (ABBMIN2's BB2 ``window`` and
    ``tau``, SDC's ``frozen`` step); its step count k, the step it takes
    next (alpha, label) with the objective f it reaches; its recorder, and
    its place ``out`` among the returned traces.
    """

    __slots__ = (
        "gw", "gnorm", "sd", "aopt", "bb2",
        "gw_prev", "gnorm_prev", "sd_prev", "aopt_prev", "bb2_prev", "bar",
        "first", "later", "short", "h", "period", "bars", "window", "tau", "frozen",
        "k", "alpha", "label", "f", "trace", "grads", "out",
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a'b for two vectors as a Python float: ``a.dot(b)`` up to
    ``DOT_CHUNK`` elements; beyond that the sum, left to right, of the
    dots of consecutive ``DOT_CHUNK``-element chunks (the rows of one
    stacked ``matmul``) and of the shorter tail, so the result does not
    depend on the BLAS thread count."""
    n = a.shape[0]
    if n <= DOT_CHUNK:
        return float(a.dot(b))
    m = n - n % DOT_CHUNK
    parts = np.matmul(a[:m].reshape(-1, 1, DOT_CHUNK), b[:m].reshape(-1, DOT_CHUNK, 1)).ravel().tolist()
    if m < n:
        parts.append(float(a[m:].dot(b[m:])))
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


def _row_dots(a: np.ndarray, b: np.ndarray) -> list[float]:
    """``_dot`` of every row pair of two (B, n) blocks, as Python floats; a
    one-row block is a vector. Up to ``DOT_CHUNK`` elements a block takes
    one stacked ``matmul``, whose rows are the BLAS dot of a 1-D
    ``a_i @ b_i``."""
    if a.ndim == 1:
        return [_dot(a, b)]
    if a.shape[1] > DOT_CHUNK:
        return [_dot(u, v) for u, v in zip(a, b)]
    return np.matmul(a[:, None, :], b[:, :, None]).ravel().tolist()


def _drain(tasks: list, work: Callable) -> None:
    """Call ``work`` on every task: the calling thread and
    min(cores in the affinity mask, tasks) - 1 worker threads take them
    from one queue. The caller takes a share, so a worker's allocations
    stay few. After the join the first exception any of them raised is
    re-raised here, and no task is started after it."""
    pending = deque(tasks)
    errors = []

    def take_tasks():
        while True:
            try:
                task = pending.popleft()
            except IndexError:
                return
            try:
                work(task)
            except Exception as exc:
                errors.append(exc)
                pending.clear()

    cores = len(os.sched_getaffinity(0))
    workers = [threading.Thread(target=take_tasks) for _ in range(min(cores, len(tasks)) - 1)]
    for worker in workers:
        worker.start()
    try:
        take_tasks()
    finally:
        pending.clear()  # an interrupted caller lets the workers finish early
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


def run_many(
    p: QuadraticProblem,
    x1: np.ndarray,
    specs: list[StrategySpec],
    eps: float = 1e-9,
    max_iter: int = 20000,
    retain_gradients: bool = False,
) -> list[RunTrace]:
    """Run every strategy in ``specs`` on ``p`` from ``x1``; one trace per spec, in order.

    Each strategy iterates until ||g_k|| <= eps * ||g_1|| or its step
    count hits max_iter. The strategies advance in lockstep blocks of at
    most max(1, BLOCK_ELEMENTS // n) rows, and a row that stops leaves its
    block. One-row blocks run concurrently (see the module docstring).
    Every trace is bitwise equal to that strategy run alone, whatever the
    other rows are, and the same under any BLAS thread count. The path
    does not depend on ``eps``, which only decides where it stops.

    A row that fails numerically is returned, not raised: it ends
    ``diverged`` with its trace up to the last iterate whose objective is
    finite and the cause in ``failure``, and the other rows run on. Only
    f is kept finite: ||g|| at that iterate may already be inf (ROADMAP
    item 5). The causes are a nonfinite ||g_1|| or f_1 at the start, a
    step to a nonfinite objective, zero curvature g'Ag = 0, and an
    undefined two-point (DY, SDC) short step.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    x = np.asarray(x1, dtype=np.float64).copy()
    if x.shape != (p.dim,):
        raise ValueError(f"x1 has shape {x.shape}, expected ({p.dim},)")

    g = p.gradient(x)
    gnorm1 = math.sqrt(_dot(g, g))
    f1 = 0.5 * _dot(x, g) - 0.5 * _dot(p.b, x)
    tol = eps * gnorm1
    failure = None
    if not (math.isfinite(gnorm1) and math.isfinite(f1)):
        failure = "nonfinite gradient norm or objective at the start"
    traces: list[RunTrace | None] = [None] * len(specs)
    rows = []
    for out, spec in enumerate(specs):
        trace = TraceRecorder(f1, gnorm1, tol, max_iter)
        grads = [g.copy()] if retain_gradients else None
        if failure:
            traces[out] = trace.result(x.copy(), "diverged", gradients=grads, failure=failure)
        elif trace.stop(gnorm1):
            traces[out] = trace.result(x.copy(), gradients=grads)
        else:
            rows.append(_Row(spec, f1, trace, grads, out))
    height = max(1, BLOCK_ELEMENTS // p.dim)
    blocks = [rows[i : i + height] for i in range(0, len(rows), height)]

    def run_block(live):
        _run_block(p, x, g, live, tol, max_iter, traces)

    if height == 1:
        _drain(blocks, run_block)
    else:
        for live in blocks:
            run_block(live)
    return traces


def _run_block(p, x, g, live, tol, max_iter, traces) -> None:
    """Run the rows ``live`` from iterate 1 = (x, g) until each has
    stopped, storing their traces; rows leave the block as they stop.
    ``x`` and ``g`` are shared between blocks and never written."""
    n = p.dim
    one = len(live) == 1
    # the working arrays, allocated once (see the module docstring); only
    # a diagonal product is written into W, other kinds return a new one
    diag = p.kind == "diag"
    shape = n if one else (len(live), n)
    X, G, G_new, S = (aligned_empty(shape) for _ in range(4))
    AL = None if one else aligned_empty(shape)
    np.copyto(X, x)
    np.copyto(G, g)
    W = p.apply(G, out=aligned_empty(shape) if diag else None)
    lagged = any(r.bars is not None for r in live)
    CGG = CWG = None
    while True:
        GG, GW, WW = _row_dots(G, G), _row_dots(G, W), _row_dots(W, W)

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
                    traces[r.out] = r.trace.result(X.reshape(-1, n)[i].copy(), gradients=r.grads)
                    done.append(i)
                    continue
            r.k = k = k + 1
            try:
                gw, ww = GW[i], WW[i]
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
            except ZeroDivisionError:
                failure = f"zero curvature g'Ag = 0 at iteration {k}"
            except (ArithmeticError, StepsizeUndefinedError) as exc:
                failure = f"stepsize undefined at iteration {k}: {exc}"
            else:
                f = r.f - alpha * gg + 0.5 * alpha * alpha * gw
                if math.isfinite(f):
                    r.alpha, r.label, r.f = alpha, label, f
                    continue
                failure = f"nonfinite objective at iteration {k}"
            traces[r.out] = r.trace.result(
                X.reshape(-1, n)[i].copy(), "diverged", gradients=r.grads, failure=failure
            )
            done.append(i)

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
            X, G, G_new, W, AL, S = X[:m], G[:m], G_new[:m], W[:m], AL[:m], S[:m]
            lagged = any(r.bars is not None for r in live)

        # one step for every row: a lone row steps by a float, a block by
        # its rows' stepsizes, each spread over its row
        if one:
            A = live[0].alpha
        else:
            A = AL
            np.copyto(A, np.array([r.alpha for r in live])[:, None])
        np.subtract(X, np.multiply(A, G, out=S), out=X)
        np.subtract(G, np.multiply(A, W, out=S), out=G_new)
        if lagged:
            CGG, CWG = _row_dots(G, G_new), _row_dots(W, G_new)
        W = p.apply(G_new, out=W if diag else None)
        G, G_new = G_new, G


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
