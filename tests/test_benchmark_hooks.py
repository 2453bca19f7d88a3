"""The benchmark's traced functions exist where it patches them.

``perfbench/layers.py`` wraps package functions by name from outside, as
``(metric prefix, module, owner, attribute)`` in ``SPAN_POINTS``.  A
refactor that deletes or renames one of them would break
``perfbench/run.py --trace 1``; this test fails first.  The benchmark file
is only read and parsed, never imported or run.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def span_points() -> list[tuple[str, str, str, str]]:
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPAN_POINTS in perfbench/layers.py")


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
