import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from specgrad import problem as problem_module
from specgrad.generators import gen_instance
from specgrad.problem import BoxBounds, ObjectiveOracle, QuadraticProblem

from reference import problem_to_json


def test_problem_module_imports_no_specgrad_module():
    # the generators build on problem, never the other way round
    tree = ast.parse(Path(problem_module.__file__).read_text())
    imported = [
        node.module or "." * node.level
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("specgrad"))
    ]
    imported += [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("specgrad")
    ]
    assert imported == []


class TestHessianApply:
    def test_identity(self):
        p = QuadraticProblem(np.ones(3))
        np.testing.assert_array_equal(p.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_diagonal_scaling(self):
        p = QuadraticProblem(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(p.apply(np.array([1.0, 1.0])), [1.0, 2.0])

    def test_dense_column(self):
        p = QuadraticProblem(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(p.apply(np.array([1.0, 0.0])), [2.0, 1.0])

    def test_dimension_mismatch(self):
        p = QuadraticProblem(np.ones(3))
        with pytest.raises(ValueError):
            p.apply(np.ones(4))
        for shape in ((2, 4), (2, 2, 3), ()):
            with pytest.raises(ValueError):
                p.apply(np.ones(shape))

    @pytest.mark.parametrize("kind", ["diag", "dense", "sparse"])
    def test_block_rows_equal_vector_products(self, kind):
        rng = np.random.default_rng(5)
        n = 300
        if kind == "diag":
            p = QuadraticProblem(rng.uniform(0.5, 4.0, n))
        else:
            m = sp.random(n, n, density=0.05, random_state=5) if kind == "sparse" else rng.standard_normal((n, n))
            a = m @ m.T + n * sp.eye(n) if kind == "sparse" else m @ m.T + n * np.eye(n)
            p = QuadraticProblem(a)
        block = rng.standard_normal((4, n))
        out = p.apply(block)
        assert out.shape == (4, n)
        for row, got in zip(block, out):
            assert np.array_equal(got, p.apply(row))

    @pytest.mark.parametrize("kind", ["diag", "dense", "sparse"])
    def test_linearity_and_symmetry(self, kind):
        rng = np.random.default_rng(3)
        n = 20
        if kind == "diag":
            p = QuadraticProblem(rng.uniform(0.5, 4.0, n))
        else:
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            p = QuadraticProblem(sp.csr_matrix(a) if kind == "sparse" else a)
        for _ in range(5):
            u, v = rng.standard_normal(n), rng.standard_normal(n)
            al, be = rng.standard_normal(2)
            lhs = p.apply(al * u + be * v)
            rhs = al * p.apply(u) + be * p.apply(v)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)
            assert abs(u @ p.apply(v) - v @ p.apply(u)) <= 1e-12 * abs(u @ p.apply(v) + 1e-300)

    def test_csr_float64_hessian_is_shared(self):
        a = sp.diags([2.0, 3.0, 4.0]).tocsr()
        p = QuadraticProblem(a, np.ones(3))
        assert p.hessian is a
        assert QuadraticProblem(a, np.zeros(3)).hessian is p.hessian
        assert np.shares_memory(p.hessian.data, a.data)

    def test_other_sparse_hessians_are_converted(self):
        a = sp.diags([2.0, 3.0, 4.0], dtype=np.float32).tocsr()
        p = QuadraticProblem(a)
        assert p.hessian.dtype == np.float64 and not np.shares_memory(p.hessian.data, a.data)
        assert p.hessian.format == "csr" and QuadraticProblem(a.tocoo()).hessian.format == "csr"

    def test_dense_and_diagonal_hessians_are_copied(self):
        for h in (np.array([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 2.0]])):
            p = QuadraticProblem(h)
            assert np.array_equal(p.hessian, h) and not np.shares_memory(p.hessian, h)

    @pytest.mark.parametrize("kind", ["diag", "dense", "sparse", "stencil"])
    def test_product_goes_into_out(self, kind):
        # a vector's or a block's product is written into out, with the
        # bits of the stored Hessian's own product of each row
        rng = np.random.default_rng(7)
        m = rng.standard_normal((27, 27))
        h = {"diag": rng.uniform(0.5, 4.0, 27), "dense": m @ m.T, "sparse": sp.csr_matrix(m + m.T)}.get(kind)
        p = QuadraticProblem.laplace3d(3) if kind == "stencil" else QuadraticProblem(h)
        a = p.hessian
        for shape in ((27,), (3, 27)):
            v, out = rng.standard_normal(shape), np.empty(shape)
            assert p.apply(v, out=out) is out
            for row, got in zip(v.reshape(-1, 27), out.reshape(-1, 27)):
                assert same_bits(got, a * row if kind == "diag" else a @ row)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_writes_its_own_copy_of_an_aligned_hessian(self):
        p = QuadraticProblem(np.array([1.0, 2.0, 3.0]))
        pid = os.fork()
        if pid == 0:  # the child writes into its copy and leaves at once
            p.hessian[:] = 99.0
            os._exit(0 if p.hessian[0] == 99.0 else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert p.hessian.tolist() == [1.0, 2.0, 3.0]

    def test_diag_positivity_enforced(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_diagonal_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuadraticProblem(np.array([1.0, bad]))

    def test_nonsymmetric_dense_rejected(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        a[0, 1] = np.nextafter(1.0, 2.0)  # one ulp off is not symmetric
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(a)

    def test_nonsymmetric_sparse_rejected(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]]))
        for bad in (a.copy(), a.tocoo()):
            bad.data[1] = np.nextafter(1.0, 2.0)  # one ulp off is not symmetric
            with pytest.raises(ValueError, match="symmetric"):
                QuadraticProblem(bad)
        lower = sp.csr_matrix(np.array([[2.0, 0.0], [1.0, 2.0]]))  # an entry without its mirror
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(lower)

    @pytest.mark.parametrize(
        "hessian", [np.zeros(0), np.zeros((0, 0)), sp.csr_matrix((0, 0))], ids=["diag", "dense", "sparse"]
    )
    def test_zero_dimension_rejected(self, hessian):
        with pytest.raises(ValueError, match="dimension must be positive"):
            QuadraticProblem(hessian)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_dense_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuadraticProblem(np.array([[2.0, bad], [bad, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sparse_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuadraticProblem(sp.diags([1.0, bad, 3.0]).tocsr())

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_b_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuadraticProblem(np.array([1.0, 2.0]), b=np.array([bad, 1.0]))


class TestGradient:
    def test_identity_zero_b(self):
        p = QuadraticProblem(np.ones(2))
        np.testing.assert_array_equal(p.gradient(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_direct(self):
        p = QuadraticProblem(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(p.gradient(np.array([1.0, 1.0])), [0.0, 1.0])

    def test_stationary_point(self):
        rng = np.random.default_rng(5)
        p = QuadraticProblem(rng.uniform(1.0, 9.0, 8), rng.standard_normal(8))
        g = p.gradient(p.solution())
        assert np.linalg.norm(g) <= 1e-12 * np.linalg.norm(p.b)

    def test_descent_identity(self):
        # f(x - a g) = f(x) - a||g||^2 + a^2/2 g'Ag, exactly for quadratics
        rng = np.random.default_rng(11)
        m = rng.standard_normal((12, 12))
        p = QuadraticProblem(m @ m.T + 12 * np.eye(12), rng.standard_normal(12))
        for _ in range(10):
            x = rng.standard_normal(12)
            a = rng.uniform(0.01, 2.0)
            g = p.gradient(x)
            lhs = p.objective(x - a * g)
            rhs = p.objective(x) - a * (g @ g) + 0.5 * a * a * (g @ p.apply(g))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestProjectBox:
    def test_interior_fixed(self):
        b = BoxBounds([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(b.project(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_clamp_both_sides(self):
        b = BoxBounds([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(b.project(np.array([-1.0, 2.0])), [0.0, 1.0])

    def test_free_coordinate(self):
        b = BoxBounds([-np.inf], [np.inf])
        np.testing.assert_array_equal(b.project(np.array([7.0])), [7.0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        b = BoxBounds(rng.uniform(-2, 0, 30), rng.uniform(0, 2, 30))
        x = 5 * rng.standard_normal(30)
        once = b.project(x)
        np.testing.assert_array_equal(b.project(once), once)

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        b = BoxBounds(rng.uniform(-2, 0, 30), rng.uniform(0, 2, 30))
        for _ in range(20):
            x, y = 5 * rng.standard_normal((2, 30))
            dp = np.linalg.norm(b.project(x) - b.project(y))
            d = np.linalg.norm(x - y)
            assert dp <= d * (1 + 1e-12)

    def test_signed_zeros_follow_np_clip(self):
        # every x in {-0.0, 0.0} against signed-zero and infinite bounds,
        # including -0.0 against a 0.0 lower bound, which np.clip maps to 0.0
        zeros = (-0.0, 0.0)
        cases = [(x, l, u) for x in zeros for l in zeros + (-np.inf,) for u in zeros + (np.inf,)]
        x, lo, hi = (np.array(c) for c in zip(*cases))
        got = BoxBounds(lo, hi).project(x)
        assert np.array_equal(np.signbit(got), np.signbit(np.clip(x, lo, hi)))
        assert not np.signbit(BoxBounds([0.0], [np.inf]).project(np.array([-0.0])))[0]

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            BoxBounds([1.0], [0.0])


def wide_vector(n, rng):
    """Normal draws scaled by 2^e, e uniform in [-300, 300), with about a
    quarter of the components zeros of either sign."""
    v = rng.standard_normal(n) * np.exp2(rng.integers(-300, 300, n))
    zero = rng.random(n) < 0.25
    v[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return v


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestStencil:
    # N = 1..7 and 31 take one slab at the default size; at N = 60 it is
    # 9 planes, so the last slab holds 6. Forced by the slab constant:
    # slabs of one plane, of 3 planes at N = 7 (the last holds one), and
    # of 7 planes at N = 60
    @pytest.mark.parametrize(
        "N, slab",
        [(N, problem_module.STENCIL_SLAB) for N in (1, 2, 3, 4, 5, 6, 7, 31, 60)] + [(7, 49), (7, 3 * 49), (60, 7 * 3600)],
    )
    def test_product_is_the_csr_product_bit_for_bit(self, N, slab, monkeypatch):
        monkeypatch.setattr(problem_module, "STENCIL_SLAB", slab)
        p = QuadraticProblem.laplace3d(N)
        a = problem_module._laplace_matrix(N)
        rng = np.random.default_rng(N)
        for v in (wide_vector(N**3, rng), -np.zeros(N**3), np.full(N**3, np.inf)):
            assert same_bits(p.apply(v), a @ v)

    def test_block_rows_are_written_into_out(self):
        p = QuadraticProblem.laplace3d(5)
        rng = np.random.default_rng(2)
        block = np.stack([wide_vector(125, rng) for _ in range(3)])
        out = np.empty((3, 125))
        assert p.apply(block, out=out) is out
        for row, got in zip(block, out):
            assert same_bits(got, p.apply(row)) and same_bits(got, p.hessian @ row)

    def test_hessian_is_the_cached_csr_matrix(self):
        p = QuadraticProblem.laplace3d(4, np.ones(64))
        a = p.hessian
        assert p.kind == "stencil" and p.dim == 64 and a is p.hessian
        assert a.format == "csr" and (a != problem_module._laplace_matrix(4)).nnz == 0
        np.testing.assert_allclose(p.apply(p.solution()), p.b, rtol=1e-12)

    def test_b_and_grid_are_validated(self):
        with pytest.raises(ValueError, match="length"):
            QuadraticProblem.laplace3d(3, np.ones(26))
        with pytest.raises(ValueError, match="finite"):
            QuadraticProblem.laplace3d(2, np.full(8, np.nan))
        with pytest.raises(ValueError, match="dimension must be positive"):
            QuadraticProblem.laplace3d(0)


class TestJsonRoundTrip:
    def test_diag(self):
        p = QuadraticProblem(np.array([1.0, 3.0]), np.array([0.5, -0.5]))
        q = QuadraticProblem.from_json(problem_to_json(p))
        np.testing.assert_array_equal(q.hessian, p.hessian)
        np.testing.assert_array_equal(q.b, p.b)

    def test_dense(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        p = QuadraticProblem(a, np.array([1.0, 2.0]))
        q = QuadraticProblem.from_json(problem_to_json(p))
        np.testing.assert_array_equal(q.hessian, a)

    def test_sparse(self):
        a = sp.diags([2.0, 3.0, 4.0]).tocsr()
        p = QuadraticProblem(a, np.array([1.0, 0.0, 1.0]))
        q = QuadraticProblem.from_json(problem_to_json(p))
        assert q.kind == "sparse"
        np.testing.assert_array_equal(q.apply(np.ones(3)), [2.0, 3.0, 4.0])

    def test_random_b_spec(self):
        desc = {
            "kind": "diag",
            "eigenvalues": [1.0, 2.0, 3.0],
            "b": {"kind": "random", "seed": 9, "range": [-10, 10]},
        }
        p = QuadraticProblem.from_json(desc)
        q = QuadraticProblem.from_json(desc)
        np.testing.assert_array_equal(p.b, q.b)
        assert np.all(np.abs(p.b) <= 10.0)

    def test_family_descriptor(self):
        desc = {"family": "TP1", "n": 10, "kappa": 10.0, "seed": 4, "mode": "diag"}
        p, x1, _ = gen_instance(desc)
        assert p.kind == "diag" and p.dim == 10
        assert p.hessian[0] == 1.0 and p.hessian[-1] == 10.0
        np.testing.assert_array_equal(x1, np.ones(10))

    def test_dense_family_descriptor(self):
        desc = {"family": "SET1", "n": 12, "kappa": 50.0, "seed": 4, "mode": "dense"}
        p, x1, _ = gen_instance(desc)
        assert p.kind == "dense" and p.dim == 12
        eig = np.linalg.eigvalsh(p.hessian)
        assert eig[0] == pytest.approx(1.0, rel=1e-10)
        assert eig[-1] == pytest.approx(50.0, rel=1e-10)
        np.testing.assert_array_equal(x1, np.ones(12))

    def test_laplace_descriptor(self):
        p, x1, _ = gen_instance({"kind": "laplace3d", "variant": "A", "N": 3})
        assert p.kind == "stencil" and p.dim == 27
        np.testing.assert_array_equal(x1, np.zeros(27))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            QuadraticProblem.from_json({"kind": "banded"})

    @pytest.mark.parametrize(
        "desc, message",
        [
            ({"kind": "diag", "eigenvalues": [[2.0, 1.0], [1.0, 2.0]]}, "1-D"),
            ({"kind": "diag", "eigenvalues": 2.0}, "1-D"),
            ({"kind": "dense", "matrix": [2.0, 3.0]}, "2-D"),
            ({"kind": "dense", "matrix": [[2.0, 1.0]]}, "square"),
        ],
    )
    def test_array_shape_must_fit_the_kind(self, desc, message):
        # the array's shape never overrides the descriptor's kind
        with pytest.raises(ValueError, match=message):
            QuadraticProblem.from_json(desc)

    def test_json_serializable(self):
        p = QuadraticProblem(np.array([1.0, 3.0]), np.array([0.5, -0.5]))
        json.dumps(problem_to_json(p))


class TestObjectiveOracle:
    def test_counters(self):
        p = QuadraticProblem(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        oracle = p.as_oracle()
        x = np.array([0.3, 0.7])
        for _ in range(3):
            oracle.f(x)
        oracle.grad(x)
        assert oracle.eval_count == 3
        assert oracle.grad_count == 1

    def test_fresh_per_call(self):
        p = QuadraticProblem(np.ones(2))
        o1, o2 = p.as_oracle(), p.as_oracle()
        o1.f(np.zeros(2))
        assert o2.eval_count == 0
