"""Lint: the package reads checked mode and never switches it.

``core.CHECKED`` is set once, from ``IETLAB_CHECK``, when ``ietlab.core`` is
imported, and every self-check reads it.  Code that turns it off around a
computation runs that computation unchecked in checked mode.  This walks
the syntax tree of every module in ``src/ietlab`` and fails on a plain,
augmented or annotated assignment to a name ``CHECKED`` or an attribute
``.CHECKED``, and on ``setattr(..., "CHECKED", ...)``.  The one exception
is the module-level definition in ``core.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ietlab"
MODULES = sorted(SRC.glob("*.py"))


def mode_switches(tree: ast.Module, defines: bool = False) -> list[int]:
    """Lines that assign CHECKED; with ``defines``, a plain assignment at
    module level is the definition and allowed."""
    allowed = {id(n) for n in tree.body if isinstance(n, ast.Assign)} if defines else set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "CHECKED"
            ):
                found.append(node.lineno)
            continue
        if id(node) in allowed:
            continue
        for sub in (n for t in targets for n in ast.walk(t)):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name == "CHECKED" and isinstance(getattr(sub, "ctx", None), ast.Store):
                found.append(node.lineno)
    return found


# the traced products' mode switch as it once stood in approx.py
OLD_DECIDED = '''
def _decided(rec, make, *args):
    if not core.CHECKED:
        return make(*args)
    core.CHECKED = False
    try:
        h = make(*args)
    finally:
        core.CHECKED = True
    return h
'''


def test_the_lint_sees_each_switch():
    assert mode_switches(ast.parse(OLD_DECIDED)) == [5, 9]
    code = (
        "CHECKED = True\n"
        "def f():\n"
        "    global CHECKED\n"
        "    CHECKED |= 1\n"
        "    ietlab.core.CHECKED: bool = False\n"
        "    a, core.CHECKED = 1, 2\n"
        "    setattr(core, 'CHECKED', False)\n"
    )
    assert mode_switches(ast.parse(code)) == [1, 4, 5, 6, 7]
    assert mode_switches(ast.parse(code), defines=True) == [4, 5, 6, 7]
    reads = "x = core.CHECKED\nif CHECKED:\n    y = {CHECKED: 1}\n    y[CHECKED] = 2\n"
    assert mode_switches(ast.parse(reads)) == []


def test_modules_are_found():
    assert {"core.py", "approx.py", "suspension.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_switches_checked_mode(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = mode_switches(tree, defines=path.name == "core.py")
    assert not found, "; ".join(f"{path.name}:{line}: assigns CHECKED" for line in found)
