"""Lint: the text format reads and writes numbers on integers.

A literal's integers go straight into a ``QuadNum``'s normal form, and its
text is printed straight from ``p``, ``q`` and ``den``.  This walks the
syntax tree of ``field.parse_number``, ``field.format_number`` and every
function of ``textio`` and fails on any use of the name ``Fraction``: a
name, an attribute read or an import.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"
FIELD_CODEC = {"parse_number", "format_number"}


def fraction_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Fraction":
            found.append((node.lineno, "names Fraction"))
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            found.append((node.lineno, "reads .Fraction"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[-1] for a in node.names]
            found += [(node.lineno, "imports Fraction") for n in names if n == "Fraction"]
    return found


def functions(tree: ast.AST, names=None) -> list[ast.AST]:
    """Every function in the tree, or only those with one of the names."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and (names is None or getattr(node, "name", None) in names)
    ]


def codec_uses(field_src: str, textio_src: str) -> list[str]:
    found = []
    for label, src, names in (("field", field_src, FIELD_CODEC), ("textio", textio_src, None)):
        for fn in functions(ast.parse(src), names):
            name = getattr(fn, "name", "<lambda>")
            found += [f"{label}.{name}:{line}: {what}" for line, what in fraction_uses(fn)]
    return found


def test_the_lint_sees_each_use():
    field = "from fractions import Fraction\n"
    field += "def parse_number(t):\n    return Fraction(t)\n"
    field += "def format_number(x):\n    import fractions\n    return str(fractions.Fraction(x))\n"
    field += "def mul(x):\n    return Fraction(x)\n"  # not a codec function
    textio = "def _read(t):\n    from fractions import Fraction as F\n    return F(t)\n"
    textio += "class Reader:\n    def read(self, t):\n        return Fraction(t)\n"
    textio += "x = Fraction(1)\n"  # module level: not in a function
    found = codec_uses(field, textio)
    assert [f.split(": ")[0] for f in found] == [
        "field.parse_number:3",
        "field.format_number:6",
        "textio._read:2",
        "textio.read:6",
    ]
    assert codec_uses("def parse_number(t):\n    return int(t)\n", "def f():\n    pass\n") == []


def test_the_codec_is_found():
    names = {fn.name for fn in functions(ast.parse((SRC / "field.py").read_text()), FIELD_CODEC)}
    assert names == FIELD_CODEC
    assert len(functions(ast.parse((SRC / "textio.py").read_text()))) >= 5


def test_the_text_format_builds_no_fraction():
    found = codec_uses((SRC / "field.py").read_text(), (SRC / "textio.py").read_text())
    assert not found, "; ".join(found)
