"""Lint: only ``suspension._regroup`` builds a component, a domain or a map.

Each surgery move of ``suspension`` only says which parts of the old domain
make each new component; ``_regroup`` turns that list into the new domain
and the validating ``Iet(...)``.  This walks the syntax tree of
``suspension.py`` and fails on a call of ``Iet``, ``Domain`` or
``Component``, by name or as an attribute such as ``core.Iet``, anywhere
but in the module-level function ``_regroup``.  Calls of their methods,
such as ``Iet.identity``, are allowed.
"""

import ast
from pathlib import Path

SUSPENSION = Path(__file__).resolve().parent.parent / "src" / "ietlab" / "suspension.py"
BUILDERS = {"Iet", "Domain", "Component"}


def builds_outside_regroup(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == "_regroup":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in BUILDERS:
                    found.append((node.lineno, name))
    return sorted(found)


def test_the_lint_sees_each_build():
    code = """
def _regroup(domain, groups):
    return Iet(domain, Domain(tuple(Component(*g) for g in groups)), [])

def move(h):
    ident = Iet.identity(h.source)
    return Iet(h.source, core.Domain(()), [])

def other():
    def _regroup():
        return Component("interval", "I", 1)

EMPTY = Domain(())
"""
    assert builds_outside_regroup(ast.parse(code)) == [
        (7, "Domain"),
        (7, "Iet"),
        (11, "Component"),
        (13, "Domain"),
    ]


def test_only_regroup_builds_in_suspension():
    found = builds_outside_regroup(ast.parse(SUSPENSION.read_text(), filename=str(SUSPENSION)))
    assert not found, "; ".join(f"suspension.py:{line}: calls {name}(...)" for line, name in found)
