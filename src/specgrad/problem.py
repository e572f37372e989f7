"""Problem abstractions: quadratic objectives, box constraints, smooth oracles.

A quadratic problem is min 0.5*x'Ax - b'x with A symmetric positive
definite. The Hessian A may be stored dense, as a diagonal vector, as a
sparse symmetric matrix, or, for the 3-D 7-point Laplacian, as its grid
size alone; all solver code only ever needs Hessian-vector products.
Box constraints are per-coordinate intervals, possibly unbounded (IEEE
+-inf sentinels). General smooth objectives enter through
``ObjectiveOracle``, a thin wrapper counting function/gradient calls.
"""

from __future__ import annotations

import mmap
from typing import Callable

import numpy as np

__all__ = ["QuadraticProblem", "BoxBounds", "ObjectiveOracle"]

_F64 = np.dtype(np.float64)

# the array keys each explicit problem kind requires (see from_json)
_ARRAY_KEYS = {"diag": {"eigenvalues"}, "dense": {"matrix"}, "sparse": {"n", "rows", "cols", "vals"}}

# A stencil product (see ``QuadraticProblem._stencil``) walks the grid in
# slabs of max(1, STENCIL_SLAB // N^2) whole z-planes, so that each slab
# of the output stays in L2 (2 MB per core) through its passes: 9 planes
# at N = 60, 3 at N = 100. Measured on a 2-core Xeon host, one BLAS
# thread, median of 200 products at N = 60 and of 60 at N = 100, in ms:
#   slab elements   8k    16k   32k   48k   64k   128k  whole grid | CSR
#   N = 60          1.67  1.16  0.95  0.91  0.97  1.18  1.54       | 2.59
#   N = 100         7.16  6.83  5.34  5.23  5.26  7.03  9.45       | 13.05
# Slabs of 32k to 64k elements lie within 5% of each other on repeats.
STENCIL_SLAB = 2**15


def aligned_empty(shape) -> np.ndarray:
    """Uninitialised float64 C array of ``shape`` that starts on a page,
    hence on a 64-byte cache line.

    A fresh ``malloc`` result is only 16-byte aligned (a large one starts
    16 bytes into a page), so the vector accesses of an elementwise
    update or a BLAS dot split cache lines. Measured on a 2-core AVX-512
    x86-64 host with one BLAS thread, on (20, 1000) blocks: the update
    (two products, two differences) took 26.4 us on aligned arrays
    against 46.1 us at a 16-byte offset, the diagonal product 9.8 against
    15.5 us and a stacked-matmul row dot 6.1 against 8.0 us.

    The array lives in a private anonymous memory map of its own, which
    goes back to the system when the array is freed and, like numpy's own
    memory, is copied on write in a forked child (each live array holds
    one of the process's mappings, 65,530 by default on Linux, and at
    least one page). Over-allocated ``malloc`` buffers, a page longer
    than scipy's products of the same length, fragmented the heap:
    perfbench's laplace60 peak RSS grew from 98 MB after 3 plan runs to
    110 MB after 8, against 97.6 MB with plain numpy arrays. A transient
    n-vector gains from its own map too: ``gen_laplace3d``'s x_star, left
    resident as freed heap once a plan dropped it, raised one N = 100
    table5 instance's peak per process from 62 to 69 MB.

    A transient n-vector from ``malloc`` costs more after a process's
    first instance: glibc raises its mmap threshold to the size of each
    mapped block it frees, so once an instance has freed its ``b`` and
    start, later n-vectors come from the heap, whose freed pages stay
    resident. Measured on the same host with the engine's start gradient
    from ``malloc``: a process running table5's N = 100 instances A and
    B twice each (cap 3) peaked at 62.0 MB after the first instance and
    69.7 MB from the second on, and with one strategy held a heap arena
    of 29.9 MB, 9.2 MB of it free, while each later block ran (6.1 MB at
    the first); with the gradient in a map of its own, 61.5 MB after
    every instance and 21.9 MB with 1.3 MB free.
    """
    size = 8 * int(np.prod(shape))
    buf = mmap.mmap(-1, max(size, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, np.float64, size // 8).reshape(shape)


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
    dense or sparse Hessian that is not exactly symmetric raise
    ``ValueError``.

    ``laplace3d(N, b)`` builds the fourth kind, ``stencil``: the 3-D
    7-point Laplacian, stored as its grid size N and applied matrix-free.

    The stored problem is immutable; solvers share instances freely. A
    float64 CSR Hessian is kept as given, not copied, so that problems
    differing only in ``b`` share one matrix: the caller must not mutate
    it afterwards. A dense Hessian is copied, and a diagonal one is copied
    into an array from ``aligned_empty``.
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
            if (self._h != self._h.T).nnz:
                raise ValueError("sparse Hessian must be exactly symmetric")
        else:
            h = np.asarray(hessian, dtype=np.float64)
            if not np.isfinite(h).all():
                raise ValueError("Hessian entries must be finite")
            if h.ndim == 1:
                if np.any(h <= 0.0):
                    raise ValueError("diagonal Hessian entries must be strictly positive")
                self.kind = "diag"
                self._h = aligned_empty(h.shape)
                self._h[...] = h
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
        self._set_b(n, b)

    @classmethod
    def laplace3d(cls, N: int, b=None) -> "QuadraticProblem":
        """The unscaled 3-D 7-point Laplacian on an N x N x N interior grid
        (6 on the diagonal, -1 per grid neighbour, Dirichlet boundary;
        index (k*N + j)*N + i, x fastest), kind ``stencil``.

        It stores N and one slab of scratch, and builds no matrix: its
        products run the stencil (bit for bit the product with
        ``_laplace_matrix(N)``), and ``hessian`` builds that CSR matrix on
        first read.
        """
        if N < 1:
            raise ValueError("problem dimension must be positive")
        p = cls.__new__(cls)
        p.kind, p._h, p._grid = "stencil", None, N
        planes = max(1, STENCIL_SLAB // (N * N))
        p._slab, p._edge = aligned_empty((planes, N, N)), np.empty((planes, N))
        p._set_b(N**3, b)
        return p

    def _set_b(self, n: int, b) -> None:
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
        """The stored Hessian; for a ``stencil`` problem its CSR matrix,
        built on first read and kept (products never read it)."""
        if self._h is None:
            self._h = _laplace_matrix(self._grid)
        return self._h

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Hessian-vector product A v, or A v_i for every row v_i of a (B, n) block.

        Each row's product is bitwise the product of that row alone: a
        diagonal Hessian multiplies per element, and a dense, sparse or
        stencil one takes one product per row, because a (B, n) @ A'
        product sums in another order. A float64 vector of length n is
        used as given.

        The product is written into ``out`` (a float64 C array of v's
        shape, not v itself) when one is given, for every kind; a block
        reuses one array from ``aligned_empty`` this way. A sparse product
        is copied there. A stencil product uses the problem's scratch
        slab, so one problem runs one product at a time.
        """
        if type(v) is not np.ndarray or v.dtype is not _F64 or v.shape != (self.dim,):
            v = np.asarray(v, dtype=np.float64)
            if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
                raise ValueError(f"vector has shape {v.shape}, expected ({self.dim},) or (B, {self.dim})")
        if self.kind == "diag":
            return np.multiply(self._h, v, out=out)
        if self.kind == "dense" and v.ndim == 1:
            return np.matmul(self._h, v, out=out)
        if out is None:
            out = np.empty(v.shape)
        for row, dst in zip(v.reshape(-1, self.dim), out.reshape(-1, self.dim)):
            if self.kind == "stencil":
                self._stencil(row, dst)
            elif self.kind == "dense":
                np.matmul(self._h, row, out=dst)
            else:
                np.copyto(dst, self._h @ row)
        return out

    @np.errstate(all="ignore")  # the CSR product it equals warns of nothing
    def _stencil(self, v: np.ndarray, out: np.ndarray) -> None:
        """out = A v for the 7-point Laplacian, slab by slab of z-planes.

        Each row sums its terms in the order of the CSR row's ascending
        columns, as scipy's ``csr_matvec`` does: from +0, minus v at
        k-1, j-1 and i-1, plus 6 v, minus v at i+1, j+1 and k+1, each
        operation rounded once. A term outside the grid is skipped (the
        matrix stores none), so the result is the CSR product bit for
        bit, signed zeros included. The i-1 and i+1 terms are taken as
        one shift of the whole slab; the rows at the x-boundary, which
        have no such term, are saved before and put back after it.
        """
        N, T, E = self._grid, self._slab, self._edge
        V, O = v.reshape(N, N, N), out.reshape(N, N, N)
        for lo in range(0, N, T.shape[0]):
            hi = min(lo + T.shape[0], N)
            o, vs, e = O[lo:hi], V[lo:hi], E[: hi - lo]
            of, vf = o.reshape(-1), vs.reshape(-1)
            a, z = max(lo, 1) - lo, min(hi, N - 1) - lo  # planes with a k-1, a k+1 neighbour
            o[:a] = 0.0
            np.subtract(0.0, V[lo + a - 1 : hi - 1], out=o[a:])
            np.subtract(o[:, 1:], vs[:, :-1], out=o[:, 1:])
            np.copyto(e, o[:, :, 0])
            np.subtract(of[1:], vf[:-1], out=of[1:])
            np.copyto(o[:, :, 0], e)
            np.add(o, np.multiply(vs, 6.0, out=T[: hi - lo]), out=o)
            np.copyto(e, o[:, :, -1])
            np.subtract(of[:-1], vf[1:], out=of[:-1])
            np.copyto(o[:, :, -1], e)
            np.subtract(o[:, :-1], vs[:, 1:], out=o[:, :-1])
            np.subtract(o[:z], V[lo + 1 : lo + z + 1], out=o[:z])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient A x - b."""
        return self.apply(x) - self.b

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * float(x.dot(self.apply(x))) - float(self.b.dot(x))

    def solution(self) -> np.ndarray:
        """Exact minimizer A^{-1} b (test oracle; sparse direct solve for
        the sparse and stencil kinds)."""
        if self.kind == "diag":
            return self.b / self._h
        if self.kind == "dense":
            return np.linalg.solve(self._h, self.b)
        from scipy.sparse.linalg import spsolve

        return spsolve(self.hessian.tocsc(), self.b)

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


def _laplace_matrix(N: int):
    """The 7-point stencil matrix (6 on the diagonal, -1 per grid
    neighbour) of index (k*N + j)*N + i, as CSR arrays built directly,
    columns ascending in every row: the reference for a ``stencil``
    problem's product."""
    import scipy.sparse as sp
    n = N**3
    r = np.arange(n, dtype=np.int32)
    i, j, k = r % N, r // N % N, r // (N * N)
    offsets = np.array([-N * N, -N, -1, 0, 1, N, N * N], dtype=np.int32)
    inside = np.stack([k > 0, j > 0, i > 0, np.ones(n, dtype=bool), i < N - 1, j < N - 1, k < N - 1], axis=1)
    indices = (r[:, None] + offsets)[inside]
    data = np.broadcast_to(np.where(offsets == 0, 6.0, -1.0), inside.shape)[inside]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


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
