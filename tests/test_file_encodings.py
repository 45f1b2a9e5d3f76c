"""Text files are opened with an explicit encoding, found with `ast`.

Every `open(...)` under `src/rulefuse/` names its mode as a literal.  A
text-mode read passes `encoding="utf-8-sig"`, so a file saved with a UTF-8
byte-order mark reads as if it had none; a text-mode write (`w`, `a`, `x`
or `+`) passes `encoding="utf-8"`, so rulefuse writes no mark; a binary
open passes no encoding.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rulefuse"
MODULES = sorted(PACKAGE.glob("*.py"))


def _literal(node):
    return node.value if isinstance(node, ast.Constant) else None


def _bad_opens(source: str, name: str = "<source>"):
    """`name:line why` for each `open(...)` call in `source` whose mode is
    not a literal or whose encoding does not fit its mode."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode_node = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        mode = "r" if mode_node is None else _literal(mode_node)
        encoding = _literal(keywords["encoding"]) if "encoding" in keywords else None
        if not isinstance(mode, str):
            why = "mode is not a literal"
        elif "b" in mode:
            why = None if "encoding" not in keywords else "binary open with an encoding"
        elif any(c in mode for c in "wax+"):
            why = None if encoding == "utf-8" else 'text write without encoding="utf-8"'
        else:
            why = None if encoding == "utf-8-sig" else 'text read without encoding="utf-8-sig"'
        if why:
            yield f"{name}:{node.lineno} {why}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_open_names_the_encoding_its_mode_needs(path):
    bad = list(_bad_opens(path.read_text(encoding="utf-8"), path.name))
    assert bad == [], f"open() calls with a missing or wrong encoding: {bad}"


@pytest.mark.parametrize(
    "call, why",
    [
        ('open(p, encoding="utf-8-sig")', None),
        ('open(p, "w", encoding="utf-8")', None),
        ('open(p, mode="wb")', None),
        ('open(p, encoding="utf-8")', "text read"),
        ("open(p)", "text read"),
        ('open(p, "r+", encoding="utf-8-sig")', "text write"),
        ('open(p, "a")', "text write"),
        ('open(p, "rb", encoding="utf-8")', "binary open"),
        ('open(p, mode, encoding="utf-8")', "not a literal"),
    ],
)
def test_the_check_tells_each_mode_apart(call, why):
    bad = list(_bad_opens(call))
    assert bad == [] if why is None else len(bad) == 1 and why in bad[0]
