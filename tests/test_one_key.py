"""Lint: only ``field`` and ``core`` key values for ordering.

The integer order key and the box it orders live behind ``field``: its
``box_key`` sizes every box from the coordinates and the reach a caller
needs, and ``core`` keeps each map's keyed piece table, which evaluation
and the orbit walks of ``suspension`` read.  A module that calls
``order_key`` itself can size a box of its own beside that rule, so this
walks the syntax tree of every module in ``src/ietlab`` but ``field`` and
``core`` and fails on an import of ``order_key``, a read of it as an
attribute, or any other use of the name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in ("field.py", "core.py"))
KEY = "order_key"


def key_references(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {a.name}") for a in node.names if a.name == KEY]
        elif isinstance(node, ast.Attribute) and node.attr == KEY:
            found.append((node.lineno, f"reads .{node.attr}"))
        elif isinstance(node, ast.Name) and node.id == KEY:
            found.append((node.lineno, f"names {node.id}"))
    return found


def test_the_lint_sees_each_planted_reference():
    code = "from ietlab.field import QuadNum, order_key\nfrom .field import order_key as k\n"
    code += "import ietlab.field as f\nK, r = f.order_key(2, 8)\nkey = order_key\n"
    assert sorted(line for line, _ in key_references(ast.parse(code))) == [1, 2, 4, 5]
    assert key_references(ast.parse("from ietlab.field import box_key\n")) == []
    # a docstring may name it: only code references count
    assert key_references(ast.parse('"""see field.order_key"""\n')) == []


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"approx.py", "relations.py", "suspension.py", "menagerie.py"} <= names
    assert not {"field.py", "core.py"} & names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_field_and_core_use_the_order_key(path):
    found = key_references(ast.parse(path.read_text(), filename=str(path)))
    assert not found, "; ".join(f"{path.name}:{line}: {what}" for line, what in found)
