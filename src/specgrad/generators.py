"""Deterministic benchmark problem generators.

Three families are produced from explicit seeds:

* diagonal quadratics whose eigenvalues follow one of six documented
  spectral layouts (``TP1`` and ``SET1``..``SET5``),
* dense quadratics with the same spectra rotated by a product of three
  random Householder reflections,
* a 3-D Laplacian linear system on the unit cube (7-point stencil,
  Dirichlet boundary) whose exact solution is a prescribed Gaussian bump
  exp(-sigma^2 r^2 / 2) damped to zero at the boundary.

All draws go through ``numpy.random.default_rng(seed)`` (PCG64), with a
fixed draw order per generator, so that a (family, n, kappa, seed) tuple
pins the problem bitwise. Uniform samples on an open interval use the
half-open transform lo + (hi-lo)*U, U in [0, 1).

``gen_instance`` owns the JSON descriptor format that plans and the CLI
share: it maps a descriptor to a problem, its starting point and its row
labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import QuadraticProblem

__all__ = [
    "SpectrumSpec",
    "LaplaceSpec",
    "gen_diag_problem",
    "gen_rotated_problem",
    "gen_rotated_equivalent",
    "gen_laplace3d",
    "laplace_eigen_bounds",
    "family_spec",
    "laplace_spec",
    "gen_instance",
]

_FAMILIES = ("TP1", "SET1", "SET2", "SET3", "SET4", "SET5")
_MODES = ("diag", "dense", "diag_equiv")

# Per-family interior eigenvalue layout: segments of 1-based index ranges
# (lo_idx, hi_idx, lo, hi), with lo/hi given as functions of kappa.
_SEGMENTS = {
    "TP1": [(lambda n, k: (2, n - 1, 1.0, k))],
    "SET1": [(lambda n, k: (2, n - 1, 1.0, k))],
    "SET2": [
        (lambda n, k: (2, n // 5, 1.0, 100.0)),
        (lambda n, k: (n // 5 + 1, n - 1, k / 2.0, k)),
    ],
    "SET3": [
        (lambda n, k: (2, n // 2, 1.0, 100.0)),
        (lambda n, k: (n // 2 + 1, n - 1, k / 2.0, k)),
    ],
    "SET4": [
        (lambda n, k: (2, 4 * n // 5, 1.0, 100.0)),
        (lambda n, k: (4 * n // 5 + 1, n - 1, k / 2.0, k)),
    ],
    "SET5": [
        (lambda n, k: (2, n // 5, 1.0, 100.0)),
        (lambda n, k: (n // 5 + 1, 4 * n // 5, 100.0, k / 2.0)),
        (lambda n, k: (4 * n // 5 + 1, n - 1, k / 2.0, k)),
    ],
}


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for a seeded quadratic test problem with a prescribed spectrum."""

    family: str
    n: int
    kappa: float
    seed: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if self.n < 3:
            raise ValueError("n must be at least 3")
        if self.kappa <= 1.0:
            raise ValueError("kappa must exceed 1")


@dataclass(frozen=True)
class LaplaceSpec:
    """7-point Laplacian instance: N interior nodes per axis, n = N^3 unknowns."""

    variant: str
    N: int

    def __post_init__(self):
        if self.variant not in ("A", "B"):
            raise ValueError("variant must be 'A' or 'B'")
        if self.N < 2:
            raise ValueError("N must be at least 2")

    @property
    def params(self) -> tuple[float, float, float, float]:
        """Gaussian width and center (sigma, alpha, beta, gamma).

        The bump is exp(-sigma^2 r^2 / 2) with r the distance to
        (alpha, beta, gamma), the form in which the problem of Friedlander,
        Martinez, Molina and Raydan (SIAM J. Numer. Anal. 36, 1999) is
        commonly cited. The exponent form is inferred from the paper's
        reference iteration counts: this repository does not hold the
        paper's or the source's problem text.
        """
        if self.variant == "A":
            return 20.0, 0.5, 0.5, 0.5
        return 50.0, 0.4, 0.7, 0.5


def _draw_spectrum(spec: SpectrumSpec, rng: np.random.Generator) -> np.ndarray:
    v = np.empty(spec.n)
    v[0] = 1.0
    v[-1] = spec.kappa
    for seg in _SEGMENTS[spec.family]:
        lo_idx, hi_idx, lo, hi = seg(spec.n, spec.kappa)
        count = hi_idx - lo_idx + 1
        if count <= 0:
            continue
        v[lo_idx - 1 : hi_idx] = lo + (hi - lo) * rng.random(count)
    return v


def _draw_b(spec: SpectrumSpec, rng: np.random.Generator) -> np.ndarray | None:
    if spec.family == "TP1":
        return None
    return -10.0 + 20.0 * rng.random(spec.n)


def gen_diag_problem(spec: SpectrumSpec) -> QuadraticProblem:
    """Diagonal problem with the family's spectrum; zero linear term for TP1,
    components uniform in (-10, 10) otherwise."""
    rng = np.random.default_rng(spec.seed)
    v = _draw_spectrum(spec, rng)
    return QuadraticProblem(v, _draw_b(spec, rng))


def _draw_reflectors(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    ws = []
    for _ in range(3):
        w = rng.standard_normal(n)
        ws.append(w / np.linalg.norm(w))
    return ws


def _apply_rotation_t(ws: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    # Q = H3 H2 H1, so Q^T x applies the reflectors in build order reversed.
    for w in reversed(ws):
        x = x - 2.0 * (w @ x) * w
    return x


def gen_rotated_problem(spec: SpectrumSpec) -> QuadraticProblem:
    """Dense problem sharing the seed's spectrum and linear term, with the
    eigenbasis rotated by three random Householder reflections."""
    rng = np.random.default_rng(spec.seed)
    v = _draw_spectrum(spec, rng)
    b = _draw_b(spec, rng)
    ws = _draw_reflectors(spec.n, rng)
    q = np.eye(spec.n)
    for w in ws:
        q = q - 2.0 * np.outer(w, w @ q)
    a = (q * v) @ q.T
    a = 0.5 * (a + a.T)
    return QuadraticProblem(a, b)


def gen_rotated_equivalent(spec: SpectrumSpec, x1: np.ndarray) -> tuple[QuadraticProblem, np.ndarray]:
    """Diagonal twin of the rotated instance under the orthogonal change of
    variables x -> Q'x.

    Returns (problem, x1') such that a gradient method run on the dense
    rotated problem from x1 and on this problem from x1' produces
    identical objective values, gradient norms, and stepsizes (exact
    arithmetic). Costs O(n) per instance instead of an n x n matrix.
    """
    rng = np.random.default_rng(spec.seed)
    v = _draw_spectrum(spec, rng)
    b = _draw_b(spec, rng)
    ws = _draw_reflectors(spec.n, rng)
    bt = None if b is None else _apply_rotation_t(ws, b)
    x1t = _apply_rotation_t(ws, np.asarray(x1, dtype=np.float64))
    return QuadraticProblem(v, bt), x1t


def gen_laplace3d(spec: LaplaceSpec) -> tuple[QuadraticProblem, np.ndarray]:
    """Unscaled 7-point Laplacian system with a known solution.

    The prescribed solution is the Gaussian exp(-sigma^2 r^2 / 2), r the
    distance to (alpha, beta, gamma) (see ``LaplaceSpec.params`` for the
    source of this form), multiplied by the boundary-vanishing factor
    x(x-1)y(y-1)z(z-1), sampled at the interior grid nodes i/(N+1) (first
    coordinate fastest); the linear term is b = A x_star so the minimizer
    is x_star exactly.
    The 1/h^2 stencil scaling is omitted: it rescales both sides and
    leaves the conditioning untouched.
    The problem is ``QuadraticProblem.laplace3d``, kind ``stencil``, and
    b comes from its matrix-free product: no sparse matrix is built.
    """
    N = spec.N
    sigma, ca, cb, cg = spec.params
    a = QuadraticProblem.laplace3d(N)
    u = np.arange(1, N + 1) / (N + 1.0)
    damp = u * (u - 1.0)
    decay = 0.5 * sigma * sigma
    fx = np.exp(-decay * (u - ca) ** 2) * damp
    fy = np.exp(-decay * (u - cb) ** 2) * damp
    fz = np.exp(-decay * (u - cg) ** 2) * damp
    # index = (k*N + j)*N + i: z slowest, x fastest
    x_star = np.einsum("k,j,i->kji", fz, fy, fx).ravel()
    return QuadraticProblem.laplace3d(N, a.apply(x_star)), x_star


def laplace_eigen_bounds(N: int) -> tuple[float, float]:
    """Closed-form extreme eigenvalues of the unscaled 7-point Laplacian."""
    h = math.pi / (2.0 * (N + 1))
    return 12.0 * math.sin(h) ** 2, 12.0 * math.sin(N * h) ** 2


def family_spec(desc: dict, seed: int | None = None) -> SpectrumSpec:
    """Spectrum recipe of a family descriptor {"family", "n", "kappa",
    "seed", "mode"}; ``seed`` overrides the descriptor's.

    ``kappa`` defaults to ``n`` and ``seed`` to 0. A missing ``family`` or
    ``n``, an unknown ``mode``, or a ``kind`` key (the problem form of a
    family descriptor is its ``mode``), raises ``ValueError``.
    """
    if missing := sorted({"family", "n"} - desc.keys()):
        raise ValueError(f"problem descriptor lacks required key(s) {missing}: {desc!r}")
    if "kind" in desc:
        raise ValueError(f"a family descriptor takes 'mode' (one of {_MODES}), not 'kind': {desc!r}")
    if desc.get("mode", "diag") not in _MODES:
        raise ValueError(f"unknown problem mode {desc['mode']!r}; expected one of {_MODES}")
    return SpectrumSpec(
        family=desc["family"],
        n=int(desc["n"]),
        kappa=float(desc.get("kappa", desc["n"])),
        seed=int(desc.get("seed", 0) if seed is None else seed),
    )


def laplace_spec(desc: dict) -> LaplaceSpec:
    """Laplacian recipe of a {"kind": "laplace3d", "variant", "N"} descriptor."""
    if missing := sorted({"variant", "N"} - desc.keys()):
        raise ValueError(f"problem descriptor lacks required key(s) {missing}: {desc!r}")
    return LaplaceSpec(variant=desc["variant"], N=int(desc["N"]))


def gen_instance(desc: dict, seed: int | None = None) -> tuple[QuadraticProblem, np.ndarray, dict]:
    """Problem, starting point and row labels ({"family", "kappa"}) of one
    JSON problem descriptor.

    * A family descriptor (any with a ``family`` key; see
      ``family_spec``, whose ``seed`` overrides the descriptor's) starts
      from ones. Its ``mode`` is ``diag`` (the default), ``dense`` (the
      rotated problem) or ``diag_equiv`` (the rotated problem's diagonal
      twin, from the rotated ones).
    * ``{"kind": "laplace3d", "variant", "N"}`` starts from zeros.
    * Any other descriptor holds explicit arrays, read by
      ``QuadraticProblem.from_json``, and starts from ones.
    """
    if "family" in desc:
        spec = family_spec(desc, seed)
        mode, ones = desc.get("mode", "diag"), np.ones(spec.n)
        if mode == "diag_equiv":
            problem, x1 = gen_rotated_equivalent(spec, ones)
        elif mode == "dense":
            problem, x1 = gen_rotated_problem(spec), ones
        else:
            problem, x1 = gen_diag_problem(spec), ones
        return problem, x1, {"family": spec.family, "kappa": spec.kappa}
    if desc.get("kind") == "laplace3d":
        spec = laplace_spec(desc)
        problem, _ = gen_laplace3d(spec)
        lam_min, lam_max = laplace_eigen_bounds(spec.N)
        return problem, np.zeros(problem.dim), {"family": f"LAPLACE-{spec.variant}", "kappa": lam_max / lam_min}
    problem = QuadraticProblem.from_json(desc)
    return problem, np.ones(problem.dim), {"family": desc["kind"], "kappa": ""}
