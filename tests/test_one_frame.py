"""Lint: only ``field`` puts exact values on integer pairs.

The decision to hold exact values as integer pairs over one denominator in
one field lives behind ``field.Frame``.  A module that imports ``field``'s
private ``_join_fields`` or ``_quad`` can re-derive that representation
beside it, so this walks the syntax tree of every module in ``src/ietlab``
but ``field`` and fails on an import of either name, or on an attribute
read of either name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "field.py")
PRIVATE = {"_join_fields", "_quad"}


def frame_bypasses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {a.name}") for a in node.names if a.name in PRIVATE]
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append((node.lineno, f"reads .{node.attr}"))
    return found


def test_the_lint_sees_each_bypass():
    code = "from ietlab.field import QuadNum, _quad\nfrom .field import _join_fields as j\n"
    code += "import ietlab.field as f\nx = f._quad(1, 0, 1, 0)\n"
    assert sorted(line for line, _ in frame_bypasses(ast.parse(code))) == [1, 2, 4]
    assert frame_bypasses(ast.parse("from ietlab.field import Frame, _sign\n")) == []


def test_modules_are_found():
    assert {"approx.py", "relations.py", "suspension.py", "textio.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_field_builds_frames(path):
    found = frame_bypasses(ast.parse(path.read_text(), filename=str(path)))
    assert not found, "; ".join(f"{path.name}:{line}: {what}" for line, what in found)
