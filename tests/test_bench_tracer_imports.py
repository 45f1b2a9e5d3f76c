"""Imports the package keeps only for the benchmark tracer.

A name imported into a `rulefuse` module but never used there carries a
`# noqa: F401` marker, and the only reason to keep one is that
`bench/tracer.py` patches it at that module attribute.  This fails when a
marked import is not in the tracer's `TARGETS`: then it is dead code, or
the tracer stopped patching it and the import can go.
"""

import ast
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rulefuse"
TRACER = ROOT / "bench" / "tracer.py"
MARKER = "# noqa: F401"


def _tracer_targets() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        (owner.__name__, attr)
        for owner, attr, *_ in module.TARGETS
        if isinstance(owner, types.ModuleType)
    }


def _marked_imports() -> list[tuple[str, str, int]]:
    """(module, imported name, line) of every import line carrying the marker;
    a marker on a line that imports nothing is reported with name None."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "rulefuse" if path.stem == "__init__" else f"rulefuse.{path.stem}"
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        marked = {no for no, line in enumerate(lines, 1) if MARKER in line}
        aliases = [
            alias
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        found.extend(
            (module, alias.asname or alias.name, alias.lineno)
            for alias in aliases
            if alias.lineno in marked
        )
        imported = {alias.lineno for alias in aliases}
        found.extend((module, None, no) for no in sorted(marked - imported))
    return found


def test_every_tracer_only_import_is_a_tracer_target():
    targets = _tracer_targets()
    marked = _marked_imports()
    assert marked, f"no {MARKER!r} import found under {PACKAGE}"
    stray = [
        f"{module}:{line} {name}" for module, name, line in marked if (module, name) not in targets
    ]
    assert stray == [], f"{MARKER} imports that bench/tracer.py does not patch: {stray}"
