"""The public API is what the package runs: every name a module lists in
``__all__`` is read somewhere in ``src/specgrad`` outside its own
definition. A formula that only the tests call belongs in
``tests/reference.py``."""

import ast
from pathlib import Path

import specgrad

SRC = Path(specgrad.__file__).parent


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
