"""The public API is what the package runs: every name a module lists in
``__all__`` is read somewhere in ``src/specgrad`` outside its own
definition. A formula that only the tests call belongs in
``tests/reference.py``."""

import ast
import dataclasses
import json
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
