"""Leftover imports and exports in the package, found with `ast`.

Every module under `src/rulefuse/` except `__init__.py` (whose imports are
the package's exports) must use each name it imports, unless the import
line carries a `# noqa: F401` marker (see test_bench_tracer_imports.py
for what may carry one).  Every `__all__` entry of every module must name
something the module defines or imports, and every module-level `_name`
a module defines must be read somewhere else in that module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rulefuse"
MODULES = sorted(PACKAGE.glob("*.py"))
MARKER = "# noqa: F401"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, line) of every import anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _top_level_names(tree: ast.Module) -> set[str]:
    names = {name for name, _ in _imports(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used_or_marked(path):
    tree = _tree(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _imports(tree)
        if name not in used and MARKER not in lines[line - 1]
    ]
    assert unused == [], f"imports never used and not marked {MARKER!r}: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    tree = _tree(path)
    defined = _top_level_names(tree)
    missing = [name for name in _exports(tree) if name not in defined]
    assert missing == [], f"{path.name} lists undefined names in __all__: {missing}"


def _private_definitions(tree: ast.Module):
    """(name, node) of every module-level `_name` function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_read(path):
    # a read from inside the helper's own definition (recursion) does not count
    tree = _tree(path)
    dead = []
    for name, definition in _private_definitions(tree):
        inside = {id(n) for n in ast.walk(definition)}
        if not any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            and id(n) not in inside
            for n in ast.walk(tree)
        ):
            dead.append(f"{path.name}:{definition.lineno} {name}")
    assert dead == [], f"module-level private names never read in their module: {dead}"
