"""The public API is what the package runs: every name a module lists in
``__all__`` is read somewhere in ``src/specgrad`` outside its own
definition. A formula that only the tests call belongs in
``tests/reference.py``. Each decision has one owner in the source: a box
variant its row of ``_VARIANTS``, and every inner product ``problem.dot``."""

import ast
import dataclasses
import json
from collections import Counter
from pathlib import Path

import specgrad
from specgrad import box_solver
from specgrad.qp_engine import StrategySpec

SRC = Path(specgrad.__file__).parent
PLANS = Path(__file__).resolve().parent.parent / "plans"


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name read, enclosing top-level definition) for every loaded
    ``ast.Name`` and ``ast.Attribute`` of a module."""
    refs = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.append((node.attr, owner))
    return refs


def test_every_public_name_is_used_inside_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    trees.pop("__init__")
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name in _exported(tree):
            used = any(
                ref == name and not (other == module and owner == name)
                for other, module_refs in refs.items()
                for ref, owner in module_refs
            )
            if not used:
                unused.append(f"{module}.{name}")
    assert unused == []


def test_box_variants_are_named_only_in_their_table():
    """A box variant differs from the others only by its row of
    ``box_solver._VARIANTS``: no code names a variant outside that table,
    except ``BoxRunConfig``'s default ``variant``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    allowed = set()
    for node in ast.walk(trees["box_solver"]):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_VARIANTS" for t in node.targets):
            allowed.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.ClassDef) and node.name == "BoxRunConfig":
            allowed.update(id(s.value) for s in node.body if isinstance(s, ast.AnnAssign) and s.target.id == "variant")
    named = [
        f"{module}:{node.lineno} {node.value!r}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in box_solver.BOX_VARIANTS and id(node) not in allowed
    ]
    assert named == []


def test_every_strategy_field_is_set_by_a_plan_or_the_runner():
    """A field of ``StrategySpec`` or ``BoxRunConfig`` is a knob only if a
    strategy entry of a shipped plan sets it or ``bench._execute`` passes
    it; a value that neither sets is a module constant."""
    plans = [json.loads(path.read_text()) for path in PLANS.glob("*.json")]
    plan_keys = {key for plan in plans for entry in plan["strategies"] for key in entry}
    execute = next(
        node for node in ast.walk(ast.parse((SRC / "bench.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_execute"
    )
    passed = {kw.arg for node in ast.walk(execute) if isinstance(node, ast.Call) for kw in node.keywords}
    idle = [
        f"{cls.__name__}.{f.name}"
        for cls in (StrategySpec, box_solver.BoxRunConfig)
        for f in dataclasses.fields(cls)
        if f.name not in plan_keys | passed
    ]
    assert idle == []


# The package's one inner-product pair: only these definitions call a
# BLAS dot, and they fix its summation order (ROADMAP items 14 and 19).
DOT_OWNERS = {("problem", "dot"), ("problem", "row_dots")}
# The matrix products outside that pair, as (module, enclosing
# definition, source), each with its reason; none of them is an inner
# product of two vectors.
MATRIX_PRODUCTS = {
    ("problem", "QuadraticProblem.apply", "np.matmul(self._h, v, out=out)"): "a dense Hessian times a vector",
    ("problem", "QuadraticProblem.apply", "np.matmul(self._h, row, out=dst)"): "a dense Hessian times one row of a block",
    ("problem", "QuadraticProblem.apply", "self._h @ row"): "scipy's sparse product with one row of a block",
    # ROADMAP items 1c and 14: the dense rotated problem is built by BLAS
    # gemv and gemm, whose order depends on the kernel
    ("generators", "gen_rotated_problem", "w @ q"): "one reflector's row w'Q of the rotation being built",
    ("generators", "gen_rotated_problem", "(q * v) @ q.T"): "the rotated Hessian Q diag(v) Q'",
}
_BLAS_ATTRS = {"dot", "inner", "vdot", "matmul", "norm"}  # a.dot(b), np.dot, np.linalg.norm, ...
_BLAS_NAMES = {"inner", "vdot", "matmul"}  # the same, imported from numpy by name


def _blas_products(source: str) -> list[tuple[str, str]]:
    """(enclosing definition, source) of every ``@``, and of every use of
    a ``dot``, ``inner``, ``vdot``, ``matmul`` or ``norm`` attribute or of
    a bare ``inner``, ``vdot`` or ``matmul`` (the whole call where it is
    called), in one module."""
    found, called = [], set()

    def blas(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr in _BLAS_ATTRS) or (
            isinstance(node, ast.Name) and node.id in _BLAS_NAMES
        )

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call) and blas(child.func):
                called.add(id(child.func))
                found.append((owner, ast.get_source_segment(source, child)))
            elif (blas(child) and id(child) not in called) or (
                isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult)
            ):
                found.append((owner, ast.get_source_segment(source, child)))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_every_inner_product_is_problem_dot():
    """Every inner product and vector norm in ``src/specgrad`` is
    ``problem.dot`` or ``problem.row_dots``, so that one function decides
    how a'b is summed: no other code calls a BLAS dot, a ``matmul`` or
    ``@``, except the matrix products named in ``MATRIX_PRODUCTS``."""
    found = [
        (path.stem, owner, segment)
        for path in sorted(SRC.glob("*.py"))
        for owner, segment in _blas_products(path.read_text())
        if (path.stem, owner) not in DOT_OWNERS
    ]
    # the sites that are not allowed, and the allowed ones that are gone
    got, allowed = Counter(found), Counter(list(MATRIX_PRODUCTS))
    assert (sorted(got - allowed), sorted(allowed - got)) == ([], [])
