"""Self-test of the benchmark's correctness checks.

Each checker must accept the genuine result of a job and count a corrupted
copy of it as a failed item.  Also checks that ``BENCHMARK.json`` names the
metrics that ``run.py`` reports.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys

import run
from layers import PER_LAYER
from workloads import WORKLOADS


def _far_exchange(ns, s, eps):
    """Automorphism of s's domain swapping two short arcs of circle 0 that
    lie far from every jump of s and s^-1."""
    core = ns.core
    length = s.source.components[0].length
    marks = sorted(
        {p.x for p in s.discontinuities() + (~s).discontinuities() if p.comp == 0}
        | {ns.field.QuadNum(0)}
    )
    gaps = [(b - a, a) for a, b in zip(marks, marks[1:] + [length])]
    gap, start = max(gaps, key=lambda g: g[0])
    delta = gap / 8
    mid = start + gap / 2 - delta
    pieces = [
        (0, 0, mid, 0, 0),
        (0, mid, delta, 0, mid + delta),
        (0, mid + delta, delta, 0, mid),
        (0, mid + 2 * delta, length - mid - 2 * delta, 0, mid + 2 * delta),
    ]
    for ci in range(1, len(s.source.components)):
        pieces.append((ci, 0, s.source.components[ci].length, ci, 0))
    if not gap > 4 * eps:
        raise RuntimeError("no gap wide enough to place the corrupt support")
    return core.Iet(s.source, s.source, pieces)


def corruptions(ns, name, item, result):
    """(label, corrupted result) pairs for one genuine result."""
    if name == "growth":
        norm, model, conj = result
        return [
            ("model is not the conjugate of h", (norm, model * model, conj)),
            ("norm disagrees with the model", (norm + 1, model, conj)),
        ]
    if name == "quotient":
        rats, quot = result
        grid = quot.grid
        not_bijection = ((0,) * grid,) + quot.generators[1:]
        return [
            ("cell permutation not a bijection", (rats, dataclasses.replace(quot, generators=not_bijection))),
            ("order does not divide grid!", (rats, dataclasses.replace(quot, group_size=math.factorial(grid) + 1))),
            ("irrational length", (list(item), quot)),  # the inputs live in Q(sqrt 2)
        ]
    if item[0] == "shrink":
        _, _, s, cfg = item
        n, u = result
        return [("support far from every jump", (n, _far_exchange(ns, s, cfg.epsilon)))]
    word = result.word
    dropped = ns.relations.Word(word.letters[1:])
    trivial = ns.relations.Word(word.letters[:1] + ((word.letters[0][0], -word.letters[0][1]),))
    return [
        ("word with a letter dropped", dataclasses.replace(result, word=dropped)),
        ("word that freely reduces to 1", dataclasses.replace(result, word=trivial)),
    ]


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {m["name"] for m in spec["end_to_end"]} != set(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end names differ from run.END_TO_END")
    if {m["name"] for m in spec["per_layer"]} != set(PER_LAYER):
        problems.append("BENCHMARK.json per_layer names differ from layers.PER_LAYER")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ns = run.load_package()
    problems = check_benchmark_json()
    flagged = 0
    for name, wl in WORKLOADS.items():
        specs = wl.specs(random.Random(f"{name}:selftest"), 5)
        picks = [specs[0]] if name != "relations" else [specs[1], specs[3]]  # shrink, relation
        for spec in picks:
            item = wl.build(ns, spec)
            result = wl.job(ns, item)
            why = run.verdict(ns, wl, item, result)
            if why is not None:
                problems.append(f"{name}: genuine result rejected: {why}")
            for label, bad in corruptions(ns, name, item, result):
                tally = run.Tally()
                tally.add(0, run.verdict(ns, wl, item, bad))
                if tally.failed != 1:
                    problems.append(f"{name}: corruption not flagged: {label}")
                else:
                    flagged += 1
                    print(f"ok  {name}: {label} -> {tally.reasons[0]}")
    for p in problems:
        print(f"FAIL {p}")
    print(f"{flagged} corruptions flagged, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
