"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctwin"


def test_source_has_no_assert_statements():
    """Contract checks raise InvariantError; an assert would vanish under
    `python -O`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/ctwin: {found}"


def test_modules_use_every_name_they_import():
    """A name imported but never read is a leftover of moved code. Only
    `__init__.py` imports names to re-export them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, f"unused imports in src/ctwin: {found}"


def test_every_private_function_is_used():
    """A module-level `_helper` or `_Class`, or a method of a private class,
    that nothing in the package reads is dead code left behind by a
    refactor."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*funcs, ast.ClassDef)) or not node.name.startswith("_") \
                    or node.name.startswith("__"):
                continue
            methods = [m for m in node.body if isinstance(m, funcs) and not m.name.startswith("__")] \
                if isinstance(node, ast.ClassDef) else []
            found += [f"{name}:{n.lineno} {n.name}" for n in (node, *methods) if n.name not in used]
    assert not found, f"unused private functions, classes or methods in src/ctwin: {found}"
