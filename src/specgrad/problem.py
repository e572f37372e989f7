"""Problem abstractions: quadratic objectives, box constraints, smooth oracles.

A quadratic problem is min 0.5*x'Ax - b'x with A symmetric positive
definite. The Hessian A may be stored dense, as a diagonal vector, or as
a sparse symmetric matrix; all solver code only ever needs Hessian-vector
products. Box constraints are per-coordinate intervals, possibly
unbounded (IEEE +-inf sentinels). General smooth objectives enter through
``ObjectiveOracle``, a thin wrapper counting function/gradient calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadraticProblem", "BoxBounds", "ObjectiveOracle"]

_F64 = np.dtype(np.float64)

# the array keys each explicit problem kind requires (see from_json)
_ARRAY_KEYS = {"diag": {"eigenvalues"}, "dense": {"matrix"}, "sparse": {"n", "rows", "cols", "vals"}}


class QuadraticProblem:
    """Strictly convex quadratic objective 0.5*x'Ax - b'x.

    Parameters
    ----------
    hessian : array_like or sparse matrix
        Either a 1-D array of strictly positive diagonal entries, a 2-D
        symmetric positive definite matrix, or a scipy sparse symmetric
        matrix.
    b : array_like, optional
        Linear term; defaults to the zero vector.

    An empty (n = 0) Hessian, nonfinite Hessian or ``b`` entries, and a
    dense Hessian that is not exactly symmetric raise ``ValueError``.

    The stored problem is immutable; solvers share instances freely. A
    float64 CSR Hessian is kept as given, not copied, so that problems
    differing only in ``b`` share one matrix: the caller must not mutate
    it afterwards. Dense and diagonal Hessians are copied.
    """

    def __init__(self, hessian, b=None):
        if isinstance(hessian, np.ndarray):  # an ndarray never loads scipy.sparse
            sparse = False
        else:
            import scipy.sparse as sp
            sparse = sp.issparse(hessian)
        if sparse:
            self.kind = "sparse"
            self._h = hessian.tocsr().astype(np.float64, copy=False)
            n = self._h.shape[0]
            if self._h.shape[0] != self._h.shape[1]:
                raise ValueError("sparse Hessian must be square")
            if not np.isfinite(self._h.data).all():
                raise ValueError("Hessian entries must be finite")
        else:
            h = np.asarray(hessian, dtype=np.float64)
            if not np.isfinite(h).all():
                raise ValueError("Hessian entries must be finite")
            if h.ndim == 1:
                if np.any(h <= 0.0):
                    raise ValueError("diagonal Hessian entries must be strictly positive")
                self.kind = "diag"
                self._h = h.copy()
                n = h.shape[0]
            elif h.ndim == 2:
                if h.shape[0] != h.shape[1]:
                    raise ValueError("dense Hessian must be square")
                if not np.array_equal(h, h.T):
                    raise ValueError("dense Hessian must be exactly symmetric")
                self.kind = "dense"
                self._h = h.copy()
                n = h.shape[0]
            else:
                raise ValueError("Hessian must be a vector, matrix, or sparse matrix")
        if n == 0:
            raise ValueError("problem dimension must be positive")
        self.dim = n
        if b is None:
            self.b = np.zeros(n)
        else:
            self.b = np.asarray(b, dtype=np.float64).copy()
            if self.b.shape != (n,):
                raise ValueError(f"b has length {self.b.shape}, expected ({n},)")
            if not np.isfinite(self.b).all():
                raise ValueError("b entries must be finite")

    @property
    def hessian(self):
        return self._h

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product A v, or A v_i for every row v_i of a (B, n) block.

        Each row's product is bitwise the product of that row alone: a
        diagonal Hessian multiplies per element, and a dense or sparse one
        takes one product per row, because a (B, n) @ A' product sums in
        another order. A float64 vector of length n is used as given.
        """
        if type(v) is not np.ndarray or v.dtype is not _F64 or v.shape != (self.dim,):
            v = np.asarray(v, dtype=np.float64)
            if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
                raise ValueError(f"vector has shape {v.shape}, expected ({self.dim},) or (B, {self.dim})")
        if self.kind == "diag":
            return self._h * v
        if v.ndim == 2:
            return np.stack([self._h @ row for row in v])
        return self._h @ v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient A x - b."""
        return self.apply(x) - self.b

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * float(x.dot(self.apply(x))) - float(self.b.dot(x))

    def solution(self) -> np.ndarray:
        """Exact minimizer A^{-1} b (test oracle; dense solve for sparse kinds)."""
        if self.kind == "diag":
            return self.b / self._h
        if self.kind == "dense":
            return np.linalg.solve(self._h, self.b)
        from scipy.sparse.linalg import spsolve

        return spsolve(self._h.tocsc(), self.b)

    def as_oracle(self) -> "ObjectiveOracle":
        """Fresh counting oracle over this objective (one per solver run)."""
        return ObjectiveOracle(self.objective, self.gradient)

    @staticmethod
    def from_json(desc: dict) -> "QuadraticProblem":
        """Build a problem from its explicit JSON description.

        Accepted kinds, with their required keys: ``diag`` (``eigenvalues``),
        ``dense`` (``matrix``) and ``sparse`` (``n``, ``rows``, ``cols``,
        ``vals``, a COO listing). A missing key, or an array whose shape
        does not fit the kind (``eigenvalues`` 1-D, ``matrix`` square
        2-D), raises ``ValueError``. The
        linear term ``b`` may be an explicit array or
        ``{"kind": "random", "seed": ..., "range": [lo, hi]}``.
        Generated problems (families, the Laplacian) are described to
        ``generators.gen_instance``, which hands other descriptors here.
        """
        kind = desc.get("kind")
        if not isinstance(kind, str) or kind not in _ARRAY_KEYS:
            raise ValueError(f"unknown problem kind: {kind!r}")
        if missing := sorted(_ARRAY_KEYS[kind] - desc.keys()):
            raise ValueError(f"{kind} problem descriptor lacks required key(s) {missing}")
        if kind != "sparse":
            key, ndim = ("eigenvalues", 1) if kind == "diag" else ("matrix", 2)
            h = np.asarray(desc[key], dtype=np.float64)
            if h.ndim != ndim:
                raise ValueError(f"{kind} problem {key!r} must be a {ndim}-D array, not shape {h.shape}")
        else:
            import scipy.sparse as sp
            n = int(desc["n"])
            h = sp.coo_matrix((desc["vals"], (desc["rows"], desc["cols"])), shape=(n, n)).tocsr()
        n = h.shape[0]
        b = _resolve_b(desc.get("b"), n)
        return QuadraticProblem(h, b)

    def __repr__(self) -> str:
        return f"QuadraticProblem(kind={self.kind!r}, dim={self.dim})"


def _resolve_b(spec, n: int) -> np.ndarray | None:
    if spec is None or spec == 0:
        return None
    if isinstance(spec, dict):
        if spec.get("kind") != "random":
            raise ValueError(f"unknown linear-term spec: {spec!r}")
        lo, hi = spec.get("range", (-10.0, 10.0))
        rng = np.random.default_rng(int(spec["seed"]))
        return lo + (hi - lo) * rng.random(n)
    return np.asarray(spec, dtype=np.float64)


class BoxBounds:
    """Per-coordinate bounds l <= x <= u; +-inf marks a free side."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=np.float64).copy()
        self.upper = np.asarray(upper, dtype=np.float64).copy()
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower/upper must be equal-length vectors")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        self.dim = self.lower.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection: componentwise clamp onto [l, u]."""
        return np.asarray(x, dtype=np.float64).clip(self.lower, self.upper)

    def __repr__(self) -> str:
        return f"BoxBounds(dim={self.dim})"


class ObjectiveOracle:
    """Counting wrapper around (f, grad) callables.

    Each solver run owns its oracle; the counters are the run's
    function/gradient evaluation totals.
    """

    def __init__(self, f: Callable[[np.ndarray], float], grad: Callable[[np.ndarray], np.ndarray]):
        self._f = f
        self._grad = grad
        self.eval_count = 0
        self.grad_count = 0

    def f(self, x: np.ndarray) -> float:
        self.eval_count += 1
        return float(self._f(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.grad_count += 1
        return np.asarray(self._grad(x), dtype=np.float64)
