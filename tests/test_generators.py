import math

import numpy as np
import pytest
import scipy.sparse as sp

from specgrad.generators import (
    LaplaceSpec,
    SpectrumSpec,
    _draw_reflectors,
    _draw_spectrum,
    family_spec,
    gen_diag_problem,
    gen_instance,
    gen_laplace3d,
    gen_rotated_equivalent,
    gen_rotated_problem,
    laplace_eigen_bounds,
)
from specgrad.problem import _laplace_matrix
from specgrad.qp_engine import StrategySpec, run


class TestSpecs:
    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            SpectrumSpec("SET9", 100, 10.0, 0)
        with pytest.raises(ValueError):
            SpectrumSpec("SET1", 2, 10.0, 0)
        with pytest.raises(ValueError):
            SpectrumSpec("SET1", 100, 1.0, 0)

    def test_laplace_validation(self):
        with pytest.raises(ValueError):
            LaplaceSpec("C", 10)
        with pytest.raises(ValueError):
            LaplaceSpec("A", 1)
        assert LaplaceSpec("A", 5).params == (20.0, 0.5, 0.5, 0.5)
        assert LaplaceSpec("B", 5).params == (50.0, 0.4, 0.7, 0.5)


class TestDiagGenerator:
    def test_tp1_endpoints_and_interior(self):
        p = gen_diag_problem(SpectrumSpec("TP1", 5, 5.0, 123))
        d = p.hessian
        assert d[0] == 1.0 and d[-1] == 5.0
        assert np.all(d[1:-1] >= 1.0) and np.all(d[1:-1] <= 5.0)
        assert np.all(p.b == 0.0)

    def test_set1_range(self):
        p = gen_diag_problem(SpectrumSpec("SET1", 100, 1e5, 7))
        d = p.hessian
        assert d[0] == 1.0 and d[-1] == 1e5
        assert np.all(d[1:-1] >= 1.0) and np.all(d[1:-1] <= 1e5)
        assert np.all(np.abs(p.b) <= 10.0) and np.any(p.b != 0.0)

    @pytest.mark.parametrize(
        "family,segments",
        [
            ("SET2", [(2, 200, 1.0, 100.0), (201, 999, 5e4, 1e5)]),
            ("SET3", [(2, 500, 1.0, 100.0), (501, 999, 5e4, 1e5)]),
            ("SET4", [(2, 800, 1.0, 100.0), (801, 999, 5e4, 1e5)]),
            ("SET5", [(2, 200, 1.0, 100.0), (201, 800, 100.0, 5e4), (801, 999, 5e4, 1e5)]),
        ],
    )
    def test_clustered_segment_ranges(self, family, segments):
        p = gen_diag_problem(SpectrumSpec(family, 1000, 1e5, 11))
        d = p.hessian
        assert d[0] == 1.0 and d[-1] == 1e5
        for lo_idx, hi_idx, lo, hi in segments:
            seg = d[lo_idx - 1 : hi_idx]
            assert np.all(seg >= lo) and np.all(seg <= hi)

    def test_seed_determinism(self):
        spec = SpectrumSpec("SET2", 300, 1e4, 99)
        p1, p2 = gen_diag_problem(spec), gen_diag_problem(spec)
        np.testing.assert_array_equal(p1.hessian, p2.hessian)
        np.testing.assert_array_equal(p1.b, p2.b)

    def test_distinct_seeds_distinct_problems(self):
        a = gen_diag_problem(SpectrumSpec("SET1", 50, 1e3, 1))
        b = gen_diag_problem(SpectrumSpec("SET1", 50, 1e3, 2))
        assert not np.array_equal(a.hessian, b.hessian)


class TestRotatedGenerator:
    def test_spectrum_preserved(self):
        spec = SpectrumSpec("SET1", 60, 1e3, 21)
        dense = gen_rotated_problem(spec)
        diag = gen_diag_problem(spec)
        eig = np.linalg.eigvalsh(dense.hessian)
        assert np.allclose(np.sort(eig), np.sort(diag.hessian), rtol=1e-8)

    def test_orthogonality_and_normalization(self):
        rng = np.random.default_rng(21)
        _ = _draw_spectrum(SpectrumSpec("SET1", 60, 1e3, 21), rng)
        _ = rng.random(60)  # the linear-term draw
        ws = _draw_reflectors(60, rng)
        for w in ws:
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-14
        q = np.eye(60)
        for w in ws:
            q = q - 2.0 * np.outer(w, w @ q)
        assert np.linalg.norm(q.T @ q - np.eye(60)) <= 1e-12 * 60

    def test_apply_matches_factored_form(self):
        spec = SpectrumSpec("SET2", 50, 1e3, 5)
        dense = gen_rotated_problem(spec)
        rng = np.random.default_rng(0)
        # reconstruct Q and V from the same stream
        gen_rng = np.random.default_rng(5)
        v = _draw_spectrum(spec, gen_rng)
        _ = gen_rng.random(50)
        ws = _draw_reflectors(50, gen_rng)
        q = np.eye(50)
        for w in ws:
            q = q - 2.0 * np.outer(w, w @ q)
        for _ in range(5):
            x = rng.standard_normal(50)
            ref = q @ (v * (q.T @ x))
            assert np.linalg.norm(dense.apply(x) - ref) <= 1e-10 * np.linalg.norm(x)

    def test_rotation_equivalent_trajectories(self):
        # identical in exact arithmetic; compare a short horizon before
        # rounding differences decohere the two runs
        spec = SpectrumSpec("SET3", 60, 1e3, 33)
        dense = gen_rotated_problem(spec)
        diag, x1t = gen_rotated_equivalent(spec, np.ones(60))
        for method in ("SD", "NEWS"):
            td = run(dense, np.ones(60), StrategySpec(method, h=4, s=6), eps=1e-10, max_iter=40)
            te = run(diag, x1t, StrategySpec(method, h=4, s=6), eps=1e-10, max_iter=40)
            np.testing.assert_allclose(td.gnorm, te.gnorm, rtol=1e-6)
            np.testing.assert_allclose(td.f, te.f, rtol=1e-6, atol=1e-12)
            np.testing.assert_allclose(td.alpha, te.alpha, rtol=1e-6)

    def test_rotation_equivalent_full_run_statistics(self):
        spec = SpectrumSpec("SET3", 60, 1e3, 33)
        dense = gen_rotated_problem(spec)
        diag, x1t = gen_rotated_equivalent(spec, np.ones(60))
        td = run(dense, np.ones(60), StrategySpec("SD"), eps=1e-10)
        te = run(diag, x1t, StrategySpec("SD"), eps=1e-10)
        assert abs(td.iterations - te.iterations) <= 0.05 * td.iterations + 2


class TestLaplace:
    def test_eigen_bounds_match_dense_eigensolve(self):
        spec = LaplaceSpec("A", 5)
        p, _ = gen_laplace3d(spec)
        eig = np.linalg.eigvalsh(p.hessian.toarray())
        lo, hi = laplace_eigen_bounds(5)
        assert eig[0] == pytest.approx(lo, rel=1e-10)
        assert eig[-1] == pytest.approx(hi, rel=1e-10)

    def test_condition_number_at_n100(self):
        lo, hi = laplace_eigen_bounds(100)
        assert 3.55 <= math.log10(hi / lo) <= 3.67

    def test_stencil_structure(self):
        p, _ = gen_laplace3d(LaplaceSpec("A", 4))
        a = p.hessian
        assert p.dim == 64
        assert np.all(a.diagonal() == 6.0)
        nnz_per_row = np.diff(a.indptr)
        assert np.all(nnz_per_row <= 7)
        assert (a != a.T).nnz == 0
        sums = np.asarray(a.sum(axis=1)).ravel()
        assert np.all(sums >= 0.0) and np.all(sums <= 6.0)

    @pytest.mark.parametrize("N", range(2, 8))
    def test_matrix_equals_kron_sum(self, N):
        # reference: the sum of the 1-D second-difference matrix along
        # each axis, x fastest
        one = np.ones(N)
        t = sp.diags([-one[:-1], 2.0 * one, -one[:-1]], offsets=(-1, 0, 1), format="csr")
        eye = sp.identity(N, format="csr")
        ref = (
            sp.kron(sp.kron(eye, eye, format="csr"), t, format="csr")
            + sp.kron(sp.kron(eye, t, format="csr"), eye, format="csr")
            + sp.kron(sp.kron(t, eye, format="csr"), eye, format="csr")
        ).tocsr()
        ref.eliminate_zeros()
        ref.sum_duplicates()
        a = _laplace_matrix(N)
        assert a.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(a, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_known_solution(self):
        p, x_star = gen_laplace3d(LaplaceSpec("B", 4))
        g = p.gradient(x_star)
        assert np.linalg.norm(g) <= 1e-12 * max(np.linalg.norm(p.b), 1.0)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_solution_matches_closed_form(self, variant):
        # u(x, y, z) = x(x-1) y(y-1) z(z-1) exp(-sigma^2 r^2 / 2), evaluated
        # point by point at the N^3 interior nodes, x fastest.
        N = 3
        sigma, ca, cb, cg = LaplaceSpec(variant, N).params
        _, x_star = gen_laplace3d(LaplaceSpec(variant, N))
        h = 1.0 / (N + 1)
        expected = []
        for k in range(1, N + 1):
            for j in range(1, N + 1):
                for i in range(1, N + 1):
                    x, y, z = i * h, j * h, k * h
                    r2 = (x - ca) ** 2 + (y - cb) ** 2 + (z - cg) ** 2
                    expected.append(x * (x - 1) * y * (y - 1) * z * (z - 1)
                                    * math.exp(-sigma ** 2 * r2 / 2))
        np.testing.assert_allclose(x_star, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("N", [3, 40])  # N = 40 takes two stencil slabs of 20 planes
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_b_is_the_matrix_product_bit_for_bit(self, variant, N):
        # b is written into the problem by the stencil; x_star keeps the
        # bits of the plain outer product of its three axis factors
        sigma, ca, cb, cg = LaplaceSpec(variant, N).params
        p, x_star = gen_laplace3d(LaplaceSpec(variant, N))
        u = np.arange(1, N + 1) / (N + 1.0)
        fx, fy, fz = (np.exp(-0.5 * sigma * sigma * (u - c) ** 2) * (u * (u - 1.0)) for c in (ca, cb, cg))
        assert x_star.tobytes() == np.einsum("k,j,i->kji", fz, fy, fx).ravel().tobytes()
        assert p.b.tobytes() == (_laplace_matrix(N) @ x_star).tobytes()
        assert not np.shares_memory(p.b, x_star)

    def test_solution_vanishes_toward_boundary_factor(self):
        _, x_star = gen_laplace3d(LaplaceSpec("A", 6))
        assert np.all(x_star != 0.0)
        assert np.max(np.abs(x_star)) < 1.0

    def test_determinism(self):
        a1, s1 = gen_laplace3d(LaplaceSpec("A", 4))
        a2, s2 = gen_laplace3d(LaplaceSpec("A", 4))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(a1.b, a2.b)


class TestGenInstance:
    DESC = {"family": "SET3", "n": 20, "kappa": 1e3, "seed": 5}

    def test_diag_equiv_starts_from_the_rotated_ones(self):
        p, x1, labels = gen_instance(dict(self.DESC, mode="diag_equiv"))
        twin, start = gen_rotated_equivalent(SpectrumSpec("SET3", 20, 1e3, 5), np.ones(20))
        np.testing.assert_array_equal(p.hessian, twin.hessian)
        np.testing.assert_array_equal(p.b, twin.b)
        np.testing.assert_array_equal(x1, start)
        assert labels == {"family": "SET3", "kappa": 1e3}

    def test_seed_overrides_the_descriptor(self):
        p, _, _ = gen_instance(self.DESC, seed=6)
        np.testing.assert_array_equal(p.hessian, gen_diag_problem(SpectrumSpec("SET3", 20, 1e3, 6)).hessian)

    def test_explicit_arrays_start_from_ones(self):
        p, x1, labels = gen_instance({"kind": "diag", "eigenvalues": [1.0, 4.0], "b": [1.0, 1.0]})
        np.testing.assert_array_equal(p.hessian, [1.0, 4.0])
        np.testing.assert_array_equal(x1, np.ones(2))
        assert labels == {"family": "diag", "kappa": ""}

    @pytest.mark.parametrize("extra", [{"kind": "dense"}, {"kind": "diag", "mode": "dense"}, {"mode": "rotated"}])
    def test_rejects_kind_and_unknown_modes(self, extra):
        with pytest.raises(ValueError, match="mode"):
            gen_instance(dict(self.DESC, **extra))

    @pytest.mark.parametrize(
        "read, desc, key",
        [
            (family_spec, {"n": 20, "mode": "diag"}, "'family'"),
            (family_spec, {"family": "SET1", "mode": "dense"}, "'n'"),
            (gen_instance, {"family": "SET1", "mode": "dense"}, "'n'"),
            (gen_instance, {"kind": "laplace3d", "variant": "A"}, "'N'"),
            (gen_instance, {"kind": "laplace3d", "N": 4}, "'variant'"),
        ],
        ids=["family-no-family", "family-no-n", "instance-no-n", "laplace-no-N", "laplace-no-variant"],
    )
    def test_missing_key_is_bad_input(self, read, desc, key):
        with pytest.raises(ValueError, match=key):
            read(desc)
