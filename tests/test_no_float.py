"""Lint: the package computes without floating point.

Every decision in ietlab is exact, and the README says that no floating
point is used anywhere.  This walks the syntax tree of every module in
``src/ietlab`` and fails on a float literal, a ``float(...)`` call, a
``__float__`` method or ``math.sqrt``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"
MODULES = sorted(SRC.glob("*.py"))


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float(...) call"))
        elif isinstance(node, ast.FunctionDef) and node.name == "__float__":
            found.append((node.lineno, "__float__ method"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "sqrt"
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append((node.lineno, "math.sqrt"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name == "sqrt" for alias in node.names):
                found.append((node.lineno, "from math import sqrt"))
    return found


def test_the_lint_sees_each_kind_of_float():
    code = "import math\nx = 1e-9\ny = float(2)\nz = math.sqrt(2)\nfrom math import sqrt\n"
    code += "class A:\n    def __float__(self):\n        return 0\n"
    assert sorted(line for line, _ in float_uses(ast.parse(code))) == [2, 3, 4, 5, 7]
    assert float_uses(ast.parse("n = 10 ** 6\nr = math.isqrt(n)\n")) == []


def test_modules_are_found():
    assert {"field.py", "relations.py", "core.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_module(path):
    found = float_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not found, "; ".join(f"{path.name}:{line}: {what}" for line, what in found)
