"""Lint: the package holds no code that nothing calls.

Code that only tests call either earns a caller in the package or moves
into ``tests/``.  This walks the syntax tree of every module in
``src/ietlab`` and fails on a top-level function or class, or a method,
whose name is referenced (as a name or an attribute) nowhere in the
package outside its own definition and is not exported in
``ietlab.__all__``.  Dunder methods are called by Python itself and are
skipped.  Names are matched as strings, so a name that means two things
counts as used: the lint errs toward passing.
"""

import ast
from pathlib import Path

import ietlab

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"

# documented library entry points that the package itself does not call
ENTRY_POINTS = {
    "drifted": "drifts a map along its drift direction; the README library example",
    "shrink_support": "the support-shrinking route to a relation (criterion 6, the relations benchmark)",
    "Iet.is_q_rational": "the q-rationality test of criterion 9",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class and
    of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def names_used(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attributes referenced in the tree, outside the node skip."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def unreferenced(trees: list[ast.Module], public: set[str]) -> list[str]:
    found = []
    for tree in trees:
        for qualname, name, node in definitions(tree):
            if name in public:
                continue
            if not any(name in names_used(other, node) for other in trees):
                found.append(qualname)
    return found


def package_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]


def test_the_lint_catches_an_unused_function():
    code = (
        "def used():\n    return 1\n\n"
        "class Box:\n"
        "    def size(self):\n        return used()\n\n"
        "    def __len__(self):\n        return self.size()\n\n"
        "def exported():\n    return Box()\n"
    )
    other = ast.parse("from mod import exported\nexported()\n")
    assert unreferenced([ast.parse(code), other], {"exported"}) == []
    injected = code + "\ndef injected():\n    return used()\n"
    assert unreferenced([ast.parse(injected), other], {"exported"}) == ["injected"]
    recursive = code + "\nclass Lone:\n    def again(self):\n        return self.again()\n"
    assert unreferenced([ast.parse(recursive), other], {"exported"}) == ["Lone", "Lone.again"]


def test_no_dead_code_in_package():
    found = [q for q in unreferenced(package_trees(), set(ietlab.__all__)) if q not in ENTRY_POINTS]
    assert not found, "called nowhere in src/ietlab: " + ", ".join(found)


def test_entry_point_list_is_current():
    # an entry point that gained a caller, or is gone, leaves the list
    stale = set(ENTRY_POINTS) - set(unreferenced(package_trees(), set(ietlab.__all__)))
    assert not stale, "no longer uncalled: " + ", ".join(sorted(stale))
