"""Lint: only ``core`` reads a subdomain's frame parts.

A ``Subdomain`` keeps its parts as sorted, merged coordinates of a frame
in ``_parts``, and ``core`` answers every question about them: union,
containment and disjointness by one merge sweep each.  A module that
reads ``_parts`` can sweep or merge them beside that path, so this walks
the syntax tree of every module in ``src/ietlab`` but ``core`` and fails
on an attribute read of ``_parts``.  The ``QuadNum`` view ``parts`` is
the edge, and any module may read it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")
PRIVATE = "_parts"


def part_reads(tree: ast.AST) -> list[tuple[int, str]]:
    return [
        (node.lineno, f"reads .{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == PRIVATE
    ]


def test_the_lint_sees_a_planted_read():
    code = "sub = u.support()\nfor ci, a, e in sub._parts:\n    pass\nn = len(x.parts)\n"
    code += "ends = [p[2] for p in eps_cover(s)._parts]\n"
    assert [line for line, _ in part_reads(ast.parse(code))] == [2, 5]
    assert part_reads(ast.parse('"""see Subdomain._parts"""\nparts = 1\n')) == []


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"relations.py", "menagerie.py", "rotations.py", "suspension.py"} <= names
    assert "core.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_core_reads_subdomain_parts(path):
    found = part_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, "; ".join(f"{path.name}:{line}: {what}" for line, what in found)
