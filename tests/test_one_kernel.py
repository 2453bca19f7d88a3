"""Lint: one kernel composes every map, on its frame's coordinates.

``Iet.__mul__``, ``Iet.__invert__`` and the merge ``Iet._fill`` work on the
integer tuples of the map's frame, with the frame's addition, subtraction
and sign alone, for exact and traced maps alike.  This walks the syntax
tree of those three and fails when one names ``QuadNum``, calls ``_quad``,
reads the ``QuadNum`` pieces (``pieces``, ``_at_edge``) or turns a
coordinate into a number (``value``).  It also fails when ``approx``
defines a class with arithmetic or comparison dunders: a traced number type
beside the recorder would be a second kernel.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"
KERNEL = ("__mul__", "__invert__", "_fill")
NAMES = {"QuadNum", "_quad"}
ATTRIBUTES = {"_quad", "pieces", "_at_edge", "value"}
DUNDERS = {
    f"__{op}__"
    for op in (
        "add radd sub rsub mul rmul truediv rtruediv floordiv rfloordiv mod rmod "
        "neg pos abs lt le gt ge eq ne"
    ).split()
}


def kernel_leaks(tree: ast.AST) -> list[str]:
    """What the kernel methods of class Iet use beyond their frame."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "Iet"):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in KERNEL):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id in NAMES:
                    found.append(f"Iet.{fn.name}:{node.lineno}: names {node.id}")
                elif isinstance(node, ast.Attribute) and node.attr in ATTRIBUTES:
                    found.append(f"Iet.{fn.name}:{node.lineno}: reads .{node.attr}")
    return found


def number_classes(tree: ast.AST) -> list[str]:
    """Classes that define arithmetic or comparison dunders."""
    found = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            ops = sorted(
                fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in DUNDERS
            )
            ops += sorted(
                t.id
                for node in cls.body
                if isinstance(node, ast.Assign)
                for t in node.targets
                if isinstance(t, ast.Name) and t.id in DUNDERS
            )
            if ops:
                found.append(f"{cls.name}:{cls.lineno}: defines {', '.join(ops)}")
    return found


def parsed(name: str) -> ast.AST:
    return ast.parse((SRC / name).read_text(), filename=name)


def test_the_lint_sees_each_leak():
    core = (
        "class Iet:\n"
        "    def __mul__(self, other):\n"
        "        return QuadNum(1) + other.pieces[0].a\n"
        "    def __invert__(self):\n"
        "        return field._quad(1, 0, 1, 0)\n"
        "    def _fill(self, frame, pieces):\n"
        "        return [frame.value(p[1]) for p in pieces]\n"
        "    def __call__(self, x):\n"
        "        return QuadNum(x)\n"  # the edge: allowed
    )
    assert [f.split(": ")[0] for f in kernel_leaks(ast.parse(core))] == [
        "Iet.__mul__:3",
        "Iet.__mul__:3",
        "Iet.__invert__:5",
        "Iet._fill:7",
    ]
    clean = "class Iet:\n    def __mul__(self, other):\n        return self.frame.add(1, 2)\n"
    assert kernel_leaks(ast.parse(clean)) == []
    approx = (
        "class TraceRecorder:\n    def decide(self, vec):\n        return 1\n"
        "class Tracked:\n    def __add__(self, o):\n        return o\n    __radd__ = __add__\n"
        "class Plain:\n    def __repr__(self):\n        return ''\n"
    )
    assert number_classes(ast.parse(approx)) == ["Tracked:4: defines __add__, __radd__"]


def test_the_kernel_methods_are_found():
    tree = parsed("core.py")
    iet = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "Iet")
    names = {fn.name for fn in iet.body if isinstance(fn, ast.FunctionDef)}
    assert set(KERNEL) <= names


def test_the_kernel_stays_on_its_frame():
    found = kernel_leaks(parsed("core.py"))
    assert not found, "; ".join(found)


@pytest.mark.parametrize("module", ["approx.py"])
def test_no_traced_number_type(module):
    found = number_classes(parsed(module))
    assert not found, "; ".join(found)
