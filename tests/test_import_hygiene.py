"""Leftover imports and exports in the package, found with `ast`.

Every module under `src/rulefuse/` must use each name it imports, unless
the import line carries a `# noqa: F401` marker (see
test_bench_tracer_imports.py for what may carry one).  Every `__all__`
entry of every module must name something the module defines or imports,
and every module-level `_name` a module defines must be read somewhere
else in that module.  The package root exports nothing: `__init__.py`
imports nothing, and no file under `src/`, `bench/` or `tests/` takes a
name from `rulefuse` itself rather than from one of its modules, so
`import rulefuse.rules` loads the rule parser without numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rulefuse"
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


def test_the_package_root_imports_nothing():
    assert list(_imports(_tree(PACKAGE / "__init__.py"))) == []


def _root_imports(path: Path):
    """Each `from rulefuse import x`, `from . import x` in the package, and
    `rulefuse.x` read as an attribute where x is not a module, in `path`."""
    submodules = {module.stem for module in MODULES}
    in_package = path.parent == PACKAGE
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 0 and node.module == "rulefuse")
            or (in_package and node.level == 1 and node.module is None)
        ):
            yield f"{path.relative_to(ROOT)}:{node.lineno} from {node.module or '.'} import"
        elif (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "rulefuse" and node.attr not in submodules
            and not node.attr.startswith("__")
        ):
            yield f"{path.relative_to(ROOT)}:{node.lineno} rulefuse.{node.attr}"


def test_nothing_imports_from_the_package_root():
    paths = [*MODULES, *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    found = [use for path in paths for use in _root_imports(path)]
    assert found == [], f"names taken from the package root, not their module: {found}"


def test_the_rule_parser_loads_without_numpy():
    code = "import sys, rulefuse.rules; assert 'numpy' not in sys.modules, 'numpy loaded'"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
