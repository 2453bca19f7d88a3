"""The benchmark's traced functions exist where it patches them.

``perfbench/layers.py`` wraps package functions by name from outside, as
``(metric prefix, module, owner, attribute)`` in ``SPAN_POINTS``.  A
refactor that deletes or renames one of them would break
``perfbench/run.py --trace 1``; this test fails first.  It also wraps the
``QuadNum`` operators of ``FIELD_GROUPS`` with count-only wrappers, and
``field.ops`` is comparable across versions only while one operation is
one call.  The benchmark file is only read and parsed, never imported or
run.
"""

import ast
import functools
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from ietlab.field import QuadNum

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def layers_constant(name: str):
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in perfbench/layers.py")


def span_points() -> list[tuple[str, str, str, str]]:
    return layers_constant("SPAN_POINTS")


def test_every_span_point_resolves():
    points = span_points()
    assert len(points) > 20
    missing = []
    for prefix, module, owner, attr in points:
        target = importlib.import_module(f"ietlab.{module}")
        if owner:
            target = getattr(target, owner, None)
        if target is None or not callable(getattr(target, attr, None)):
            missing.append(f"{prefix}: ietlab.{module}.{owner + '.' if owner else ''}{attr}")
    assert not missing, "benchmark hooks with no target: " + ", ".join(missing)


X = QuadNum(1, 1, 2)
Y = QuadNum(Fraction(1, 3), -1, 2)
ONE_CALL = {
    "x + fraction": lambda: X + Fraction(1, 3),
    "x + int": lambda: X + 1,
    "int + x": lambda: 1 + X,
    "x - x": lambda: X - Y,
    "int - x": lambda: 1 - X,
    "fraction - x": lambda: Fraction(1, 3) - X,
    "-x": lambda: -X,
    "abs(negative)": lambda: abs(Y),
    "x * int": lambda: X * 2,
    "int / x": lambda: 1 / X,
    "x < int": lambda: X < 1,
    "int < x": lambda: 1 < X,
    "x <= fraction": lambda: X <= Fraction(1, 3),
    "x == int": lambda: X == 1,
    "x != x": lambda: X != Y,
    "x != int": lambda: X != 1,
}


@pytest.mark.parametrize("op", list(ONE_CALL.values()), ids=list(ONE_CALL))
def test_each_field_operation_counts_one_call(monkeypatch, op):
    # the count-only wrapper of FieldCounter: one count per call
    calls = []

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(this, *args):
            calls.append(fn.__name__)
            return fn(this, *args)

        return wrapper

    for attrs in layers_constant("FIELD_GROUPS").values():
        for attr in attrs:
            monkeypatch.setattr(QuadNum, attr, counted(getattr(QuadNum, attr)))
    op()
    assert len(calls) == 1, calls
